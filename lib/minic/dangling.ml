(* Flow-sensitive, interprocedural dangling-pointer analysis for MiniC.

   Abstract state, per program point:
   - every tracked variable (param or local) carries a [vinfo]: which
     allocation site its value came from ([Vfresh n] — provably a fresh
     object from site n, [Vnull], or [Vtop]) and a freed status in the
     {Alive < MaybeFreed, MustFreed < MaybeFreed} lattice;
   - every points-to class carries Alive/MaybeFreed: once any object of
     the class may have been freed, values loaded from the heap (whose
     identity we do not track) conservatively inherit MaybeFreed.

   Aliasing comes from the field-sensitive {!Dsa} classes: a [free e]
   weakens every variable of the same object class unless its abstract
   value is provably a different object (distinct allocation sites, or
   null).
   Interprocedural flow is summary-based and context-insensitive: each
   function gets (a) the join of class states and argument states over
   all call sites as its entry, (b) a transitive may-free class set
   applied at its call sites, and (c) a joined return-value state.  The
   whole thing iterates to a global fixpoint — all lattices are finite
   and the updates monotone — and a final pass re-runs the transfer
   functions with the fixed block-entry states to collect findings.

   Verdicts are sound in one direction by construction: an execution can
   only trap on a use the analysis marked May/Must, never on a
   Safe-marked one — which is exactly what lets the runtime skip shadow
   protection for allocation sites whose class has only Safe uses (see
   [Runtime.Schemes.shadow_pool]'s [Elided] mode).  The differential
   oracle in test/test_dangling.ml enforces this against the
   interpreter. *)

module VMap = Map.Make (String)
module S = Set.Make (String)
module C = Set.Make (Int)

type verdict = Safe | May_uaf | Must_uaf

let verdict_label = function
  | Safe -> "safe"
  | May_uaf -> "may-uaf"
  | Must_uaf -> "must-uaf"

let verdict_max a b =
  match (a, b) with
  | Must_uaf, _ | _, Must_uaf -> Must_uaf
  | May_uaf, _ | _, May_uaf -> May_uaf
  | Safe, Safe -> Safe

type use_kind = Deref | Free_op

let kind_label = function Deref -> "deref" | Free_op -> "free"

type finding = {
  fname : string;
  pos : Ast.pos;
  kind : use_kind;
  verdict : verdict;
  class_id : int option;  (* object class being dereferenced / freed *)
  witness : string;       (* for May/Must: why, e.g. "freed at main@6:3" *)
}

type site = {
  ordinal : int;        (* Dsa.iter_malloc_sites numbering *)
  fname : string;
  struct_name : string;
  pos : Ast.pos;
  class_id : int;
  verdict : verdict;    (* class verdict; [Safe] = protection elidable *)
}

type result = {
  findings : finding list;
  sites : site list;
  class_verdicts : (int * verdict) list;  (* heap classes only *)
}

(* ---- lattices --------------------------------------------------------- *)

type freed = Alive | MaybeFreed | MustFreed

let freed_join a b = if a = b then a else MaybeFreed

(* Weak update after a free that may (but need not) cover this value. *)
let weaken = function Alive -> MaybeFreed | f -> f

type aval = Vnull | Vfresh of int | Vtop

let aval_join a b =
  match (a, b) with
  | x, y when x = y -> x
  (* null ⊔ v = v: freeing/dereferencing null is never a temporal
     violation, so folding null into the other side stays sound for both
     the distinctness argument and the verdicts. *)
  | Vnull, v | v, Vnull -> v
  | _ -> Vtop

(* Values that cannot denote the same live object. *)
let provably_distinct a b =
  match (a, b) with
  | Vnull, _ | _, Vnull -> true
  | Vfresh n, Vfresh m -> n <> m
  | _ -> false

type vinfo = { value : aval; freed : freed; freed_at : string option }

let vinfo_join a b =
  {
    value = aval_join a.value b.value;
    freed = freed_join a.freed b.freed;
    freed_at = (match a.freed_at with Some _ -> a.freed_at | None -> b.freed_at);
  }

let vinfo_top = { value = Vtop; freed = Alive; freed_at = None }
let vinfo_null = { value = Vnull; freed = Alive; freed_at = None }

let vinfo_opt_join a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (vinfo_join a b)

type astate = { vars : vinfo VMap.t; classes : freed array }

let state_join a b =
  {
    vars =
      VMap.union (fun _ va vb -> Some (vinfo_join va vb)) a.vars b.vars;
    classes = Array.map2 freed_join a.classes b.classes;
  }

let state_equal a b =
  VMap.equal ( = ) a.vars b.vars && a.classes = b.classes

let clone st = { st with classes = Array.copy st.classes }

(* ---- summaries -------------------------------------------------------- *)

type summary = {
  mutable may_free : C.t;              (* classes freed, transitively *)
  mutable entry_classes : freed array; (* join of class states at calls *)
  mutable entry_params : vinfo option array;
  mutable ret : vinfo option;          (* joined returned-value state *)
}

type ctx = {
  program : Ast.program;
  pt : Dsa.t;
  nclasses : int;
  heap : C.t;
  site_of_pos : (Ast.pos, int) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
  mutable changed : bool;
}

let summary ctx fname =
  match Hashtbl.find_opt ctx.summaries fname with
  | Some s -> s
  | None ->
    let s =
      {
        may_free = C.empty;
        entry_classes = Array.make ctx.nclasses Alive;
        entry_params = [||];
        ret = None;
      }
    in
    Hashtbl.replace ctx.summaries fname s;
    s

(* ---- per-function analysis -------------------------------------------- *)

type fctx = {
  fname : string;
  tracked : S.t;  (* params and locals: variables we track strongly *)
  record : (finding -> unit) option;
}

let rec locals_of_stmts acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Ast.Decl (_, x, _) -> S.add x acc
      | Ast.If (_, t, f) -> locals_of_stmts (locals_of_stmts acc t) f
      | Ast.While (_, body) -> locals_of_stmts acc body
      | _ -> acc)
    acc stmts

(* Object class an expression's value points into.  Malloc expressions
   are resolved positionally through the shared site numbering. *)
let obj_class ctx ~fname e =
  match e with
  | Ast.Malloc (_, p)
  | Ast.Malloc_array (_, _, p)
  | Ast.Pool_malloc (_, _, p)
  | Ast.Pool_malloc_array (_, _, _, p) ->
    Option.map (Dsa.site_class ctx.pt) (Hashtbl.find_opt ctx.site_of_pos p)
  | e -> Dsa.expr_pointee_class ctx.pt ~fname e

(* Status of a pointer value we do not track by identity (heap loads,
   globals, unknown call results): alive unless its object class may
   have been freed. *)
let vinfo_of_class ctx st = function
  | Some c when C.mem c ctx.heap ->
    {
      value = Vtop;
      freed = (match st.classes.(c) with Alive -> Alive | _ -> MaybeFreed);
      freed_at = None;
    }
  | _ -> vinfo_top

let record fc finding =
  match fc.record with Some f -> f finding | None -> ()

let use_finding ctx fc st ~kind ~pos base_expr (v : vinfo) =
  let verdict =
    match v.freed with
    | MustFreed -> Must_uaf
    | MaybeFreed -> May_uaf
    | Alive -> Safe
  in
  let class_id = obj_class ctx ~fname:fc.fname base_expr in
  let witness =
    match verdict with
    | Safe -> ""
    | _ ->
      (match v.freed_at with
       | Some w -> "value freed at " ^ w
       | None ->
         (match class_id with
          | Some c -> Printf.sprintf "an object of class #%d may have been freed" c
          | None -> "value may alias a freed object"))
  in
  record fc { fname = fc.fname; pos; kind; verdict; class_id; witness };
  ignore st

(* Apply a callee's may-free effect: weaken the freed classes and every
   variable that could alias an object in them. *)
let apply_may_free ctx ~fname st freed_classes =
  if C.is_empty freed_classes then st
  else begin
    let st = clone st in
    C.iter
      (fun c -> if c < ctx.nclasses then st.classes.(c) <- weaken st.classes.(c))
      freed_classes;
    let vars =
      VMap.mapi
        (fun x v ->
          if v.value = Vnull then v
          else
            match Dsa.var_class ctx.pt ~fname x with
            | Some vc ->
              (match Dsa.pointee ctx.pt vc with
               | Some oc when C.mem oc freed_classes ->
                 { v with freed = weaken v.freed }
               | _ -> v)
            | None -> v)
        st.vars
    in
    { st with vars }
  end

let rec eval ctx fc st e : vinfo * astate =
  match e with
  | Ast.Int _ -> (vinfo_top, st)
  | Ast.Null -> (vinfo_null, st)
  | Ast.Var x ->
    let v =
      if S.mem x fc.tracked then
        match VMap.find_opt x st.vars with
        | Some v -> v
        | None ->
          (* Bound on no path reaching here (use-before-decl is a type
             error); any sound default works. *)
          vinfo_of_class ctx st
            (Option.bind
               (Dsa.var_class ctx.pt ~fname:fc.fname x)
               (Dsa.pointee ctx.pt))
      else
        (* Global: identity not tracked, fall back to its class. *)
        vinfo_of_class ctx st
          (Option.bind
             (Dsa.var_class ctx.pt ~fname:fc.fname x)
             (Dsa.pointee ctx.pt))
    in
    (v, st)
  | Ast.Binop (_, a, b) ->
    let _, st = eval ctx fc st a in
    let _, st = eval ctx fc st b in
    (vinfo_top, st)
  | Ast.Unop (_, a) ->
    let _, st = eval ctx fc st a in
    (vinfo_top, st)
  | Ast.Field (base, _, pos) ->
    let bv, st = eval ctx fc st base in
    use_finding ctx fc st ~kind:Deref ~pos base bv;
    (* The loaded value: identity unknown, status from the class of the
       objects this field points to. *)
    (vinfo_of_class ctx st (obj_class ctx ~fname:fc.fname e), st)
  | Ast.Index (base, idx, pos) ->
    let bv, st = eval ctx fc st base in
    let _, st = eval ctx fc st idx in
    use_finding ctx fc st ~kind:Deref ~pos base bv;
    (* Pointer arithmetic within the same allocation. *)
    (bv, st)
  | Ast.Malloc _ ->
    (fresh_vinfo ctx e, st)
  | Ast.Malloc_array (_, count, _) | Ast.Pool_malloc_array (_, _, count, _) ->
    let _, st = eval ctx fc st count in
    (fresh_vinfo ctx e, st)
  | Ast.Pool_malloc _ -> (fresh_vinfo ctx e, st)
  | Ast.Call (g, args) ->
    let argvs, st =
      List.fold_left
        (fun (acc, st) a ->
          let v, st = eval ctx fc st a in
          (v :: acc, st))
        ([], st) args
    in
    let argvs = List.rev argvs in
    let st =
      match Ast.find_func ctx.program g with
      | None -> st
      | Some callee ->
        let sm = summary ctx g in
        (* Join this call site into the callee's entry. *)
        let ec = Array.map2 freed_join sm.entry_classes st.classes in
        if ec <> sm.entry_classes then begin
          sm.entry_classes <- ec;
          ctx.changed <- true
        end;
        let nparams = List.length callee.Ast.params in
        if Array.length sm.entry_params < nparams then begin
          let a = Array.make nparams None in
          Array.blit sm.entry_params 0 a 0 (Array.length sm.entry_params);
          sm.entry_params <- a
        end;
        List.iteri
          (fun i v ->
            if i < nparams then begin
              let j = vinfo_opt_join sm.entry_params.(i) (Some v) in
              if j <> sm.entry_params.(i) then begin
                sm.entry_params.(i) <- j;
                ctx.changed <- true
              end
            end)
          argvs;
        (* Callee frees are also frees of this function: union them into
           our own summary so the effect propagates through arbitrarily
           deep call chains. *)
        let own = summary ctx fc.fname in
        let merged = C.union own.may_free sm.may_free in
        if not (C.equal merged own.may_free) then begin
          own.may_free <- merged;
          ctx.changed <- true
        end;
        apply_may_free ctx ~fname:fc.fname st sm.may_free
    in
    let ret =
      match Ast.find_func ctx.program g with
      | Some _ ->
        (match (summary ctx g).ret with
         | Some rv -> rv
         | None ->
           vinfo_of_class ctx st
             (Option.bind (Dsa.ret_class ctx.pt g) (Dsa.pointee ctx.pt)))
      | None -> vinfo_top
    in
    (ret, st)

and fresh_vinfo ctx e =
  let p =
    match e with
    | Ast.Malloc (_, p)
    | Ast.Malloc_array (_, _, p)
    | Ast.Pool_malloc (_, _, p)
    | Ast.Pool_malloc_array (_, _, _, p) ->
      p
    | _ -> Ast.no_pos
  in
  match Hashtbl.find_opt ctx.site_of_pos p with
  | Some site -> { value = Vfresh site; freed = Alive; freed_at = None }
  | None -> vinfo_top

(* free e / poolfree e: verdict on double free, then weak updates. *)
let exec_free ctx fc st ~pos e =
  let v, st = eval ctx fc st e in
  let verdict =
    match v.freed with
    | MustFreed -> Must_uaf
    | MaybeFreed -> May_uaf
    | Alive -> Safe
  in
  let class_id = obj_class ctx ~fname:fc.fname e in
  let witness =
    match verdict with
    | Safe -> ""
    | _ ->
      (match v.freed_at with
       | Some w -> "already freed at " ^ w
       | None -> "value may alias an already-freed object")
  in
  record fc
    { fname = fc.fname; pos; kind = Free_op; verdict; class_id; witness };
  let st = clone st in
  (match class_id with
   | Some c when C.mem c ctx.heap ->
     st.classes.(c) <- weaken st.classes.(c);
     (* Record the effect in this function's transitive summary. *)
     let sm = summary ctx fc.fname in
     if not (C.mem c sm.may_free) then begin
       sm.may_free <- C.add c sm.may_free;
       ctx.changed <- true
     end
   | _ -> ());
  let here = Printf.sprintf "%s@%s" fc.fname (Ast.pos_label pos) in
  let vars =
    VMap.mapi
      (fun x vx ->
        match class_id with
        | Some c
          when (match
                  Option.bind
                    (Dsa.var_class ctx.pt ~fname:fc.fname x)
                    (Dsa.pointee ctx.pt)
                with
               | Some oc -> oc = c
               | None -> false)
               && not (provably_distinct vx.value v.value) ->
          { vx with
            freed = weaken vx.freed;
            freed_at =
              (match vx.freed_at with Some _ -> vx.freed_at | None -> Some here)
          }
        | _ -> vx)
      st.vars
  in
  let vars =
    (* Strong update for [free(x)]: x itself is now definitely freed. *)
    match e with
    | Ast.Var x when S.mem x fc.tracked ->
      VMap.add x { v with freed = MustFreed; freed_at = Some here } vars
    | _ -> vars
  in
  { st with vars }

let exec_stmt ctx fc st (s : Ast.stmt) =
  match s with
  | Ast.Decl (_, x, init) ->
    let v, st =
      match init with
      | Some e -> eval ctx fc st e
      | None -> (vinfo_null, st)
    in
    { st with vars = VMap.add x v st.vars }
  | Ast.Assign (x, e) ->
    let v, st = eval ctx fc st e in
    if S.mem x fc.tracked then { st with vars = VMap.add x v st.vars } else st
  | Ast.Store (base, _, rhs, pos) ->
    let bv, st = eval ctx fc st base in
    let _, st = eval ctx fc st rhs in
    use_finding ctx fc st ~kind:Deref ~pos base bv;
    st
  | Ast.Free (e, pos) | Ast.Pool_free (_, e, pos) -> exec_free ctx fc st ~pos e
  | Ast.Return (Some e) ->
    let v, st = eval ctx fc st e in
    let sm = summary ctx fc.fname in
    let j = vinfo_opt_join sm.ret (Some v) in
    if j <> sm.ret then begin
      sm.ret <- j;
      ctx.changed <- true
    end;
    st
  | Ast.Return None -> st
  | Ast.Print e | Ast.Expr e ->
    let _, st = eval ctx fc st e in
    st
  | Ast.Pool_init _ | Ast.Pool_destroy _ -> st
  | Ast.If _ | Ast.While _ ->
    (* invariant: Cfg.build flattens structured control flow *)
    failwith "Dangling.exec_stmt: structured statement in CFG block"

let exec_instr ctx fc st = function
  | Cfg.Simple s -> exec_stmt ctx fc st s
  | Cfg.Cond e ->
    let _, st = eval ctx fc st e in
    st

let exec_block ctx fc st (b : Cfg.block) =
  List.fold_left (exec_instr ctx fc) st b.Cfg.instrs

(* Entry state of a function from its summary. *)
let entry_state ctx (f : Ast.func) =
  let sm = summary ctx f.Ast.name in
  let vars =
    List.fold_left
      (fun (i, vars) (_, p) ->
        let v =
          if i < Array.length sm.entry_params then
            match sm.entry_params.(i) with
            | Some v -> v
            | None -> vinfo_top
          else vinfo_top
        in
        (i + 1, VMap.add p v vars))
      (0, VMap.empty) f.Ast.params
    |> snd
  in
  { vars; classes = Array.copy sm.entry_classes }

(* Intra-procedural fixpoint; returns per-block entry states (None for
   unreachable blocks). *)
let analyze_func ctx (f : Ast.func) cfg =
  let fc =
    { fname = f.Ast.name; tracked = locals_of_stmts (S.of_list (List.map snd f.Ast.params)) f.Ast.body; record = None }
  in
  let n = Cfg.block_count cfg in
  let inputs = Array.make n None in
  inputs.(cfg.Cfg.entry) <- Some (entry_state ctx f);
  let order = Cfg.rpo cfg in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > 10_000 then
      (* invariant: all lattices are finite and transfer is monotone *)
      failwith "Dangling.analyze_func: fixpoint did not converge";
    List.iter
      (fun id ->
        match inputs.(id) with
        | None -> ()
        | Some st ->
          let out = exec_block ctx fc (clone st) cfg.Cfg.blocks.(id) in
          List.iter
            (fun succ ->
              let joined =
                match inputs.(succ) with
                | None -> out
                | Some prev -> state_join prev out
              in
              match inputs.(succ) with
              | Some prev when state_equal prev joined -> ()
              | _ ->
                inputs.(succ) <- Some joined;
                changed := true)
            cfg.Cfg.blocks.(id).Cfg.succs)
      order
  done;
  (fc, inputs)

let positions_of_sites program =
  let tbl = Hashtbl.create 64 in
  let rev = Hashtbl.create 64 in
  Dsa.iter_malloc_sites program (fun ~site ~fname:_ ~struct_name:_ ~pos ->
      if pos <> Ast.no_pos && not (Hashtbl.mem tbl pos) then begin
        Hashtbl.replace tbl pos site;
        Hashtbl.replace rev site pos
      end);
  (tbl, rev)

let analyze_with (pt : Dsa.t) (program : Ast.program) =
  Typecheck.check program;
  let site_of_pos, pos_of_site = positions_of_sites program in
  let ctx =
    {
      program;
      pt;
      nclasses = Dsa.class_count pt;
      heap = C.of_list (Dsa.heap_classes pt);
      site_of_pos;
      summaries = Hashtbl.create 16;
      changed = true;
    }
  in
  let cfgs =
    List.map (fun (f : Ast.func) -> (f, Cfg.build f)) program.Ast.funcs
  in
  (* Global fixpoint over function summaries. *)
  let rounds = ref 0 in
  while ctx.changed do
    ctx.changed <- false;
    incr rounds;
    if !rounds > 10_000 then
      (* invariant: summary growth is monotone over finite lattices *)
      failwith "Dangling.analyze: summary fixpoint did not converge";
    List.iter (fun (f, cfg) -> ignore (analyze_func ctx f cfg)) cfgs
  done;
  (* Final pass: re-run the transfer functions on the converged states,
     now recording findings. *)
  let findings = ref [] in
  List.iter
    (fun (f, cfg) ->
      let fc, inputs = analyze_func ctx f cfg in
      let fc = { fc with record = Some (fun fd -> findings := fd :: !findings) } in
      Array.iteri
        (fun id input ->
          match input with
          | None -> ()
          | Some st -> ignore (exec_block ctx fc (clone st) cfg.Cfg.blocks.(id)))
        inputs)
    cfgs;
  let findings =
    List.sort
      (fun (a : finding) (b : finding) ->
        compare
          (a.pos.Ast.line, a.pos.Ast.col, a.kind, a.fname)
          (b.pos.Ast.line, b.pos.Ast.col, b.kind, b.fname))
      !findings
  in
  (* Class verdict: the worst finding touching the class.  Classes with
     no May/Must finding are Safe — their allocation sites can skip
     shadow protection without weakening detection anywhere else. *)
  let class_verdict = Hashtbl.create 16 in
  C.iter (fun c -> Hashtbl.replace class_verdict c Safe) ctx.heap;
  List.iter
    (fun (fd : finding) ->
      match fd.class_id with
      | Some c when Hashtbl.mem class_verdict c ->
        Hashtbl.replace class_verdict c
          (verdict_max (Hashtbl.find class_verdict c) fd.verdict)
      | _ -> ())
    findings;
  let sites = ref [] in
  Dsa.iter_malloc_sites program (fun ~site ~fname ~struct_name ~pos ->
      let c = Dsa.site_class pt site in
      let verdict =
        match Hashtbl.find_opt class_verdict c with
        | Some v -> v
        | None -> May_uaf
      in
      let pos =
        match Hashtbl.find_opt pos_of_site site with
        | Some p -> p
        | None -> pos
      in
      sites :=
        { ordinal = site; fname; struct_name; pos; class_id = c; verdict }
        :: !sites);
  {
    findings;
    sites = List.rev !sites;
    class_verdicts =
      Hashtbl.fold (fun c v acc -> (c, v) :: acc) class_verdict []
      |> List.sort compare;
  }

let analyze (program : Ast.program) =
  Typecheck.check program;
  analyze_with (Dsa.analyze program) program

(* ---- elision policy ---------------------------------------------------- *)

(* Runtime site strings end in "@line:col" (see Interp); a site may skip
   shadow protection iff the analysis proved its whole class Safe.
   Unknown or position-less sites always keep protection. *)
let parse_site_pos s =
  match String.rindex_opt s '@' with
  | None -> None
  | Some i ->
    let suffix = String.sub s (i + 1) (String.length s - i - 1) in
    (match String.index_opt suffix ':' with
     | None -> None
     | Some j ->
       let line = String.sub suffix 0 j in
       let col = String.sub suffix (j + 1) (String.length suffix - j - 1) in
       (match (int_of_string_opt line, int_of_string_opt col) with
        | Some l, Some c -> Some { Ast.line = l; col = c }
        | _ -> None))

let elide_policy result =
  let safe = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.verdict = Safe && s.pos <> Ast.no_pos then
        Hashtbl.replace safe s.pos ())
    result.sites;
  fun site_string ->
    match parse_site_pos site_string with
    | Some p -> Hashtbl.mem safe p
    | None -> false

let count_findings result =
  List.fold_left
    (fun (s, may, must) (fd : finding) ->
      match fd.verdict with
      | Safe -> (s + 1, may, must)
      | May_uaf -> (s, may + 1, must)
      | Must_uaf -> (s, may, must + 1))
    (0, 0, 0) result.findings

let has_must result =
  List.exists (fun (fd : finding) -> fd.verdict = Must_uaf) result.findings
