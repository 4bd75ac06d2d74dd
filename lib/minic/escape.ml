let closure (pt : Dsa.t) seeds =
  let seen = Hashtbl.create 16 in
  let rec visit c =
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.replace seen c ();
      List.iter visit (Dsa.succ pt c)
    end
  in
  List.iter visit seeds;
  Hashtbl.fold (fun c () acc -> c :: acc) seen []

let reachable_from_globals (pt : Dsa.t) (program : Ast.program) =
  let seeds =
    List.filter_map
      (fun (_, name) -> Dsa.var_class pt ~fname:"" name)
      program.globals
  in
  closure pt seeds

let escapes (pt : Dsa.t) (f : Ast.func) c =
  let seeds =
    List.filter_map (fun (_, p) -> Dsa.var_class pt ~fname:f.name p) f.params
    @ Option.to_list (Dsa.ret_class pt f.name)
  in
  List.mem c (closure pt seeds)
