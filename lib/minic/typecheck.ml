exception Type_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let field_type program sname fname =
  match List.assoc_opt sname program.Ast.structs with
  | None -> fail "unknown struct %s" sname
  | Some fields ->
    (match List.assoc_opt fname (List.map (fun (t, f) -> (f, t)) fields) with
     | Some t -> t
     | None -> fail "struct %s has no field %s" sname fname)

let rec expr_type program env expr =
  match expr with
  | Ast.Int _ -> Some Ast.Tint
  | Ast.Null -> None (* null is compatible with any pointer *)
  | Ast.Var name ->
    (match List.assoc_opt name env with
     | Some t -> Some t
     | None -> fail "undeclared variable %s" name)
  | Ast.Binop (_, a, b) ->
    ignore (expr_type program env a);
    ignore (expr_type program env b);
    Some Ast.Tint
  | Ast.Unop (_, a) ->
    ignore (expr_type program env a);
    Some Ast.Tint
  | Ast.Field (base, fname, _) ->
    (match expr_type program env base with
     | Some (Ast.Tptr sname) -> Some (field_type program sname fname)
     | Some Ast.Tint -> fail "-> applied to an int (field %s)" fname
     | None -> fail "-> applied to a void/null expression (field %s)" fname)
  | Ast.Malloc (sname, _) | Ast.Pool_malloc (_, sname, _) ->
    if not (List.mem_assoc sname program.Ast.structs) then
      fail "malloc of unknown struct %s" sname;
    Some (Ast.Tptr sname)
  | Ast.Malloc_array (sname, count, _)
  | Ast.Pool_malloc_array (_, sname, count, _) ->
    if not (List.mem_assoc sname program.Ast.structs) then
      fail "malloc of unknown struct %s" sname;
    (match expr_type program env count with
     | Some Ast.Tint -> ()
     | Some (Ast.Tptr _) | None -> fail "array count must be an int");
    Some (Ast.Tptr sname)
  | Ast.Index (base, idx, _) ->
    (match expr_type program env idx with
     | Some Ast.Tint -> ()
     | Some (Ast.Tptr _) | None -> fail "array index must be an int");
    (match expr_type program env base with
     | Some (Ast.Tptr sname) -> Some (Ast.Tptr sname)
     | Some Ast.Tint | None -> fail "indexing a non-pointer")
  | Ast.Call (fname, args) ->
    (match Ast.find_func program fname with
     | None -> fail "call to undefined function %s" fname
     | Some f ->
       let expected =
         List.length f.Ast.params + List.length f.Ast.pool_params
       in
       if List.length args <> expected then
         fail "call to %s with %d arguments (expected %d)" fname
           (List.length args) expected;
       (* Pool-descriptor arguments are bare variables introduced by the
          transform; they are not value expressions to type. *)
       List.filteri (fun i _ -> i < List.length f.Ast.params) args
       |> List.iter (fun a -> ignore (expr_type program env a));
       f.Ast.ret)

(* Names must be unique per kind: a second definition would otherwise
   be silently shadowed (lookups take the first) or merged. *)
let check_unique ?(within = "") kind names =
  ignore
    (List.fold_left
       (fun seen name ->
         if List.mem name seen then fail "duplicate %s %s%s" kind name within;
         name :: seen)
       [] names)

(* A block may shadow an outer name but not declare one twice. *)
let rec check_stmts program ret_typ env stmts =
  check_unique "declaration"
    (List.filter_map
       (function Ast.Decl (_, name, _) -> Some name | _ -> None)
       stmts);
  ignore (List.fold_left (check_stmt program ret_typ) env stmts)

and check_stmt program ret_typ env stmt =
  match stmt with
  | Ast.Decl (typ, name, init) ->
    (match init with
     | Some e -> ignore (expr_type program env e)
     | None -> ());
    (name, typ) :: env
  | Ast.Assign (name, e) ->
    if not (List.mem_assoc name env) then fail "assignment to undeclared %s" name;
    ignore (expr_type program env e);
    env
  | Ast.Store (base, fname, e, _) ->
    (match expr_type program env base with
     | Some (Ast.Tptr sname) -> ignore (field_type program sname fname)
     | Some Ast.Tint | None -> fail "field store through non-pointer");
    ignore (expr_type program env e);
    env
  | Ast.Free (e, _) | Ast.Pool_free (_, e, _) ->
    (match expr_type program env e with
     | Some (Ast.Tptr _) | None -> ()
     | Some Ast.Tint -> fail "free of an int expression");
    env
  | Ast.If (cond, then_body, else_body) ->
    ignore (expr_type program env cond);
    check_stmts program ret_typ env then_body;
    check_stmts program ret_typ env else_body;
    env
  | Ast.While (cond, body) ->
    ignore (expr_type program env cond);
    check_stmts program ret_typ env body;
    env
  | Ast.Return None ->
    if ret_typ <> None then fail "return without a value in a non-void function";
    env
  | Ast.Return (Some e) ->
    if ret_typ = None then fail "return with a value in a void function";
    ignore (expr_type program env e);
    env
  | Ast.Print e ->
    ignore (expr_type program env e);
    env
  | Ast.Expr e ->
    ignore (expr_type program env e);
    env
  | Ast.Pool_init _ | Ast.Pool_destroy _ -> env

let check_struct program (sname, fields) =
  check_unique ~within:(" in struct " ^ sname) "field" (List.map snd fields);
  List.iter
    (fun (typ, fname) ->
      match typ with
      | Ast.Tint -> ()
      | Ast.Tptr target ->
        if not (List.mem_assoc target program.Ast.structs) then
          fail "struct %s: field %s points to unknown struct %s" sname fname
            target)
    fields

let check program =
  check_unique "struct" (List.map fst program.Ast.structs);
  check_unique "global" (List.map snd program.Ast.globals);
  check_unique "function" (List.map (fun f -> f.Ast.name) program.Ast.funcs);
  List.iter (check_struct program) program.Ast.structs;
  let global_env = List.map (fun (t, n) -> (n, t)) program.Ast.globals in
  List.iter
    (fun f ->
      check_unique
        ~within:(" in function " ^ f.Ast.name)
        "parameter" (List.map snd f.Ast.params);
      let env =
        List.map (fun (t, n) -> (n, t)) f.Ast.params @ global_env
      in
      check_stmts program f.Ast.ret env f.Ast.body)
    program.Ast.funcs
