(* Static pool inference: partition allocation sites into scoped pools
   using the field-sensitive DSA partition, infer each pool's lifetime
   (the owner function where pool_create/pool_destroy land, from
   {!Pool_transform.plan}'s escape-based owner selection), check
   per-pool type homogeneity, and attach a static risk score to every
   allocation site.

   The risk score folds three signals into [0,1]:

     risk = 0.55 * V * (0.5 + 0.5 * D) + 0.30 * E + 0.15 * Z

   - V: the site's class verdict from {!Dangling} (Must_uaf 1.0,
     May_uaf 0.5, Safe 0.0) — the dominant term; a Safe class
     contributes nothing however big or long-lived its pool is;
   - D: May/Must finding density on the class (flagged findings /
     all findings touching the class) — scales V by how much of the
     class's use surface is suspect;
   - E: escape depth pressure, ed/(ed+1), where ed is how many call
     levels the object outlives its allocating function (0 for
     objects owned by their allocator, depth+1 for global-pool
     classes) — deeper escapes mean longer windows for dangling uses;
   - Z: pool size pressure, (nsites-1)/nsites — multi-site pools
     aggregate more frees into one class, so a single use has more
     chances to trip over another site's free.

   Everything is emitted in a canonical order (pools by id = heap-class
   order, sites by ordinal), so two runs over one program render
   byte-identical output — the determinism gate in the bench validator
   and `make pools-smoke` diffs exactly this. *)

type pool = {
  id : int;
  class_id : int;
  pool_var : string;
  owner : string;
  owner_depth : int;
  global : bool;
  destroyable : bool;
  struct_names : string list;
  homogeneous : bool;
  sites : int list;
}

type site_score = {
  ordinal : int;
  fname : string;
  struct_name : string;
  pos : Ast.pos;
  pool_id : int;
  class_id : int;
  verdict : Dangling.verdict;
  escape_depth : int;
  risk : float;
}

type result = { pools : pool list; sites : site_score list }

(* Call-graph depth from main: BFS over direct callees.  Functions not
   reachable from main sit at depth 0 (their pools cannot outlive main
   anyway). *)
let depth_from_main (program : Ast.program) =
  let depth = Hashtbl.create 16 in
  (match Ast.find_func program "main" with
   | None -> ()
   | Some main ->
     let q = Queue.create () in
     Hashtbl.replace depth "main" 0;
     Queue.add main q;
     while not (Queue.is_empty q) do
       let f = Queue.pop q in
       let d = Hashtbl.find depth f.Ast.name in
       List.iter
         (fun g ->
           if not (Hashtbl.mem depth g) then
             match Ast.find_func program g with
             | Some callee ->
               Hashtbl.replace depth g (d + 1);
               Queue.add callee q
             | None -> ())
         (Pool_transform.callee_names f)
     done);
  fun fname -> match Hashtbl.find_opt depth fname with Some d -> d | None -> 0

let verdict_weight = function
  | Dangling.Must_uaf -> 1.0
  | Dangling.May_uaf -> 0.5
  | Dangling.Safe -> 0.0

let risk_score ~verdict ~density ~escape_depth ~pool_sites =
  let v = verdict_weight verdict in
  let e =
    let ed = float_of_int escape_depth in
    ed /. (ed +. 1.0)
  in
  let z =
    let n = float_of_int (max 1 pool_sites) in
    (n -. 1.0) /. n
  in
  (0.55 *. v *. (0.5 +. (0.5 *. density))) +. (0.30 *. e) +. (0.15 *. z)

let analyze (program : Ast.program) =
  Typecheck.check program;
  let pt = Dsa.analyze program in
  let dang = Dangling.analyze_with pt program in
  let owners = Pool_transform.plan pt program in
  let depth = depth_from_main program in
  let sites_of_class c =
    List.filter_map
      (fun (s : Dangling.site) ->
        if s.Dangling.class_id = c then Some s.Dangling.ordinal else None)
      dang.Dangling.sites
  in
  let pools =
    List.mapi
      (fun id (c, owner, global) ->
        let struct_names = Dsa.struct_names pt c in
        {
          id;
          class_id = c;
          pool_var = Pool_transform.pool_var_name c;
          owner;
          owner_depth = depth owner;
          global;
          destroyable = not global;
          struct_names;
          homogeneous = List.length struct_names <= 1;
          sites = sites_of_class c;
        })
      owners
  in
  let pool_of_class c = List.find (fun (p : pool) -> p.class_id = c) pools in
  let density c =
    let total, flagged =
      List.fold_left
        (fun (t, f) (fd : Dangling.finding) ->
          if fd.Dangling.class_id = Some c then
            (t + 1, if fd.Dangling.verdict <> Dangling.Safe then f + 1 else f)
          else (t, f))
        (0, 0) dang.Dangling.findings
    in
    float_of_int flagged /. float_of_int (max 1 total)
  in
  let sites =
    List.map
      (fun (s : Dangling.site) ->
        let p = pool_of_class s.Dangling.class_id in
        let alloc_depth = depth s.Dangling.fname in
        let escape_depth =
          if p.global then alloc_depth + 1
          else max 0 (alloc_depth - p.owner_depth)
        in
        {
          ordinal = s.Dangling.ordinal;
          fname = s.Dangling.fname;
          struct_name = s.Dangling.struct_name;
          pos = s.Dangling.pos;
          pool_id = p.id;
          class_id = s.Dangling.class_id;
          verdict = s.Dangling.verdict;
          escape_depth;
          risk =
            risk_score ~verdict:s.Dangling.verdict
              ~density:(density s.Dangling.class_id)
              ~escape_depth ~pool_sites:(List.length p.sites);
        })
      dang.Dangling.sites
  in
  { pools; sites }

(* ---- output ----------------------------------------------------------- *)

let round4 f = Float.round (f *. 10000.) /. 10000.

let to_json ?file (r : result) =
  let module J = Telemetry.Json in
  let pool_json (p : pool) =
    J.Obj
      [
        ("id", J.Int p.id);
        ("class", J.Int p.class_id);
        ("pool_var", J.String p.pool_var);
        ("owner", J.String p.owner);
        ("owner_depth", J.Int p.owner_depth);
        ("global", J.Bool p.global);
        ("destroyable", J.Bool p.destroyable);
        ("structs", J.List (List.map (fun s -> J.String s) p.struct_names));
        ("homogeneous", J.Bool p.homogeneous);
        ("sites", J.List (List.map (fun s -> J.Int s) p.sites));
      ]
  in
  let site_json (s : site_score) =
    J.Obj
      [
        ("site", J.Int s.ordinal);
        ("func", J.String s.fname);
        ("struct", J.String s.struct_name);
        ("line", J.Int s.pos.Ast.line);
        ("col", J.Int s.pos.Ast.col);
        ("pool", J.Int s.pool_id);
        ("class", J.Int s.class_id);
        ("verdict", J.String (Dangling.verdict_label s.verdict));
        ("escape_depth", J.Int s.escape_depth);
        ("risk", J.Float (round4 s.risk));
      ]
  in
  let count f l = List.length (List.filter f l) in
  J.Obj
    ((match file with Some f -> [ ("file", J.String f) ] | None -> [])
    @ [
        ( "summary",
          J.Obj
            [
              ("pools", J.Int (List.length r.pools));
              ("destroyable", J.Int (count (fun (p : pool) -> p.destroyable) r.pools));
              ("homogeneous", J.Int (count (fun (p : pool) -> p.homogeneous) r.pools));
              ("sites", J.Int (List.length r.sites));
            ] );
        ( "pools",
          J.List
            (List.map pool_json
               (List.sort (fun (a : pool) b -> compare a.id b.id) r.pools)) );
        ( "sites",
          J.List
            (List.map site_json
               (List.sort
                  (fun (a : site_score) b -> compare a.ordinal b.ordinal)
                  r.sites)) );
      ])

let render ?file (r : result) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  (match file with Some f -> add "%s:" f | None -> ());
  List.iter
    (fun (p : pool) ->
      add "pool %d (%s): owner=%s depth=%d %s %s [%s] sites=[%s]" p.id
        p.pool_var p.owner p.owner_depth
        (if p.global then "global,kept-until-exit"
         else "scoped,destroyed-at-owner-exit")
        (if p.homogeneous then "homogeneous" else "MIXED-TYPES")
        (String.concat "," p.struct_names)
        (String.concat "," (List.map string_of_int p.sites)))
    (List.sort (fun (a : pool) b -> compare a.id b.id) r.pools);
  List.iter
    (fun (s : site_score) ->
      add "site %d: malloc(struct %s) in %s@%s -> pool %d verdict=%s \
           escape_depth=%d risk=%.4f"
        s.ordinal s.struct_name s.fname (Ast.pos_label s.pos) s.pool_id
        (Dangling.verdict_label s.verdict)
        s.escape_depth (round4 s.risk))
    (List.sort (fun (a : site_score) b -> compare a.ordinal b.ordinal) r.sites);
  Buffer.contents b
