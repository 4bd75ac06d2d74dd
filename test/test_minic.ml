(* Tests for the MiniC compiler substrate: lexer, parser, typechecker,
   points-to analysis, escape analysis, the Automatic Pool Allocation
   transform, and the interpreter — including semantic preservation of
   the transform and end-to-end detection of the paper's Figure 1 bug. *)

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

(* The paper's running example (Figures 1/2), completed into a runnable
   program.  [print(p->next->val)] reads the sublist head, which is NOT
   freed by free_all_but_head, so the program is correct as written. *)
let running_example =
  {|
struct s { int val; struct s *next; }

void create_list(struct s *p, int n) {
  struct s *cur = p;
  int i = 0;
  while (i < n) {
    cur->next = malloc(struct s);
    cur = cur->next;
    cur->val = i;
    cur->next = null;
    i = i + 1;
  }
}

void free_all_but_head(struct s *p) {
  struct s *cur = p->next;
  while (cur != null) {
    struct s *nxt = cur->next;
    free(cur);
    cur = nxt;
  }
  p->next = null;
}

void g(struct s *p) {
  p->next = malloc(struct s);
  p->next->val = 7;
  p->next->next = null;
  create_list(p->next, 10);
  free_all_but_head(p->next);
}

void f() {
  struct s *p = malloc(struct s);
  p->val = 1;
  p->next = null;
  g(p);
  print(p->next->val);
  free(p->next);
  free(p);
}

void main() {
  f();
  f();
}
|}

(* Figure 1's actual bug: the second node is freed, then dereferenced. *)
let buggy_example =
  {|
struct s { int val; struct s *next; }

void g(struct s *p) {
  struct s *a = malloc(struct s);
  struct s *b = malloc(struct s);
  p->next = a;
  a->val = 1;
  a->next = b;
  b->val = 2;
  b->next = null;
  free(b);
}

void f() {
  struct s *p = malloc(struct s);
  p->next = null;
  g(p);
  print(p->next->next->val);
}

void main() { f(); }
|}

(* ---- lexer ---- *)

let test_lexer_tokens () =
  let toks = List.map fst (Minic.Lexer.tokenize "x = a->b + 42; // c\n") in
  check_bool "token stream" true
    (toks
     = Minic.Lexer.
         [ IDENT "x"; ASSIGN; IDENT "a"; ARROW; IDENT "b"; PLUS; INT_LIT 42;
           SEMI; EOF ])

let test_lexer_comments_and_lines () =
  let toks = Minic.Lexer.tokenize "a\n/* multi\nline */ b" in
  (match toks with
   | [ (Minic.Lexer.IDENT "a", 1); (Minic.Lexer.IDENT "b", 3);
       (Minic.Lexer.EOF, 3) ] ->
     ()
   | _ -> Alcotest.fail "comment/line tracking broken")

let test_lexer_operators () =
  let toks = List.map fst (Minic.Lexer.tokenize "== != <= >= < > && || !") in
  check_bool "operators" true
    (toks
     = Minic.Lexer.[ EQ; NE; LE; GE; LT; GT; ANDAND; OROR; BANG; EOF ])

let test_lexer_error () =
  (match Minic.Lexer.tokenize "a @ b" with
   | _ -> Alcotest.fail "expected lex error"
   | exception Minic.Lexer.Lex_error { line = 1; _ } -> ());
  (* A literal past max_int is a typed lex error, not a Failure. *)
  match
    Minic.Lexer.tokenize "void main() {\n  print(99999999999999999999999); }"
  with
  | _ -> Alcotest.fail "expected out-of-range literal error"
  | exception Minic.Lexer.Lex_error { line = 2; _ } -> ()

(* ---- parser ---- *)

let test_parse_running_example () =
  let p = Minic.Parser.parse running_example in
  check_int "structs" 1 (List.length p.Minic.Ast.structs);
  check_int "functions" 5 (List.length p.Minic.Ast.funcs);
  match Minic.Ast.find_func p "f" with
  | Some f -> check_int "f params" 0 (List.length f.Minic.Ast.params)
  | None -> Alcotest.fail "f missing"

let test_parse_precedence () =
  let p = Minic.Parser.parse "void main() { int x = 1 + 2 * 3; print(x); }" in
  (match Minic.Ast.find_func p "main" with
   | Some { Minic.Ast.body = Minic.Ast.Decl (_, _, Some e) :: _; _ } ->
     (match e with
      | Minic.Ast.Binop (Minic.Ast.Add, Minic.Ast.Int 1,
                         Minic.Ast.Binop (Minic.Ast.Mul, Minic.Ast.Int 2,
                                          Minic.Ast.Int 3)) ->
        ()
      | _ -> Alcotest.fail "precedence wrong")
   | _ -> Alcotest.fail "unexpected shape")

let test_parse_error_reports_line () =
  (match Minic.Parser.parse "void main() {\n  int x = ;\n}" with
   | _ -> Alcotest.fail "expected parse error"
   | exception Minic.Parser.Parse_error { line; _ } -> check_int "line" 2 line)

let test_parse_globals () =
  let p = Minic.Parser.parse "struct s { int v; } struct s *g; int n; void main() { n = 3; }" in
  check_int "globals" 2 (List.length p.Minic.Ast.globals)

let test_pretty_roundtrip () =
  let p1 = Minic.Parser.parse running_example in
  let printed = Minic.Pretty.program_to_string p1 in
  let p2 = Minic.Parser.parse printed in
  check_int "same function count" (List.length p1.Minic.Ast.funcs)
    (List.length p2.Minic.Ast.funcs);
  check_string "fixpoint" printed (Minic.Pretty.program_to_string p2)

(* ---- typechecker ---- *)

let expect_type_error src =
  match Minic.Typecheck.check (Minic.Parser.parse src) with
  | () -> Alcotest.fail "expected type error"
  | exception Minic.Typecheck.Type_error _ -> ()

let test_typecheck_ok () = Minic.Typecheck.check (Minic.Parser.parse running_example)

let test_typecheck_unknown_field () =
  expect_type_error
    "struct s { int v; } void main() { struct s *p = malloc(struct s); p->w = 1; }"

let test_typecheck_unknown_var () = expect_type_error "void main() { x = 1; }"

let test_typecheck_bad_malloc () =
  expect_type_error "void main() { int x = malloc(struct nope); }"

let test_typecheck_arity () =
  expect_type_error "void f(int x) { } void main() { f(1, 2); }"

let test_typecheck_void_return () =
  expect_type_error "void f() { return 3; }  void main() { f(); }"

let test_typecheck_duplicates () =
  expect_type_error "void main() { } void main() { print(1); }";
  expect_type_error "struct s { int v; } struct s { int w; int x; } void main() { }";
  expect_type_error "int g; int g; void main() { }";
  expect_type_error "struct s { int v; struct s *v; } void main() { }";
  expect_type_error
    "void f(int a, int a) { print(a); } void main() { f(1, 2); }";
  expect_type_error "void main() { int x = 1; int x = 2; print(x); }";
  expect_type_error
    "void main() { int x = 1; while (x) { int y = 0; int y = 1; x = y; } }";
  (* an inner block may still shadow an outer name *)
  Minic.Typecheck.check
    (Minic.Parser.parse
       "void main() { int x = 1; if (x) { int x = 2; print(x); } }")

(* ---- points-to + escape ---- *)

let test_points_to_example () =
  let p = Minic.Parser.parse running_example in
  let pt = Minic.Dsa.analyze p in
  check_bool "has heap classes" true (Minic.Dsa.heap_classes pt <> []);
  (* All list-node malloc sites (sites 0 in create_list and 1 in g) land
     in one class; f's head allocation may be separate. *)
  let c_list = Minic.Dsa.site_class pt 0 in
  let c_g = Minic.Dsa.site_class pt 1 in
  check_int "list sites unified" c_list c_g;
  check_string "struct hint" "s"
    (Option.value ~default:"?" (Minic.Dsa.struct_hint pt c_list))

let test_escape_example () =
  let p = Minic.Parser.parse running_example in
  let pt = Minic.Dsa.analyze p in
  let c = Minic.Dsa.site_class pt 0 in
  let func name =
    match Minic.Ast.find_func p name with
    | Some f -> f
    | None -> Alcotest.fail ("no function " ^ name)
  in
  check_bool "escapes g (reachable from its param)" true
    (Minic.Escape.escapes pt (func "g") c);
  check_bool "does not escape f" false (Minic.Escape.escapes pt (func "f") c);
  check_bool "no globals -> nothing global" true
    (Minic.Escape.reachable_from_globals pt p = [])

let test_escape_globals () =
  let src =
    "struct s { int v; struct s *next; } struct s *g;\n\
     void main() { g = malloc(struct s); g->v = 1; }"
  in
  let p = Minic.Parser.parse src in
  let pt = Minic.Dsa.analyze p in
  let c = Minic.Dsa.site_class pt 0 in
  check_bool "global-reachable" true
    (List.mem c (Minic.Escape.reachable_from_globals pt p))

(* ---- pool transform ---- *)

let test_transform_running_example () =
  let p = Minic.Parser.parse running_example in
  let transformed, summary = Minic.Pool_transform.transform p in
  Minic.Typecheck.check transformed;
  check_int "all sites rewritten" 3 summary.Minic.Pool_transform.sites_rewritten;
  check_int "all frees rewritten" 3 summary.Minic.Pool_transform.frees_rewritten;
  check_bool "no global pools" true
    (List.for_all
       (fun d -> not d.Minic.Pool_transform.global)
       summary.Minic.Pool_transform.pools);
  List.iter
    (fun d -> check_string "owner is f" "f" d.Minic.Pool_transform.owner)
    summary.Minic.Pool_transform.pools;
  (* g must have received pool parameters; f must not. *)
  (match Minic.Ast.find_func transformed "g" with
   | Some g -> check_bool "g gets descriptors" true (g.Minic.Ast.pool_params <> [])
   | None -> Alcotest.fail "g missing");
  match Minic.Ast.find_func transformed "f" with
  | Some f ->
    check_bool "f owns, receives none" true (f.Minic.Ast.pool_params = []);
    let inits =
      List.filter
        (function Minic.Ast.Pool_init _ -> true | _ -> false)
        f.Minic.Ast.body
    in
    let destroys =
      List.filter
        (function Minic.Ast.Pool_destroy _ -> true | _ -> false)
        f.Minic.Ast.body
    in
    check_int "inits match destroys" (List.length inits) (List.length destroys)
  | None -> Alcotest.fail "f missing"

let test_transform_global_pool () =
  let src =
    "struct s { int v; struct s *next; } struct s *head;\n\
     void add() { struct s *n = malloc(struct s); n->next = head; head = n; }\n\
     void main() { add(); add(); }"
  in
  let transformed, summary = Minic.Pool_transform.transform (Minic.Parser.parse src) in
  Minic.Typecheck.check transformed;
  (match summary.Minic.Pool_transform.pools with
   | [ d ] ->
     check_bool "global" true d.Minic.Pool_transform.global;
     check_string "owned by main" "main" d.Minic.Pool_transform.owner
   | _ -> Alcotest.fail "expected one pool");
  match Minic.Ast.find_func transformed "add" with
  | Some add -> check_bool "descriptor threaded" true (add.Minic.Ast.pool_params <> [])
  | None -> Alcotest.fail "add missing"

let test_transform_requires_main () =
  let src = "struct s { int v; } void f() { struct s *p = malloc(struct s); free(p); }" in
  (match Minic.Pool_transform.transform (Minic.Parser.parse src) with
   | _ -> Alcotest.fail "expected Transform_error"
   | exception Minic.Pool_transform.Transform_error _ -> ())

let test_transform_early_returns () =
  let src =
    "struct s { int v; }\n\
     void main() {\n\
    \  struct s *p = malloc(struct s);\n\
    \  p->v = 1;\n\
    \  if (p->v > 0) { free(p); return; }\n\
    \  free(p);\n\
     }"
  in
  let transformed, _ = Minic.Pool_transform.transform (Minic.Parser.parse src) in
  Minic.Typecheck.check transformed;
  (* Run it: the pool must be destroyed exactly once on the early-return
     path (a double destroy would raise Invalid_argument). *)
  let m = Vmm.Machine.create () in
  ignore (Minic.Interp.run transformed (Runtime.Schemes.shadow_pool m))

let prints program scheme =
  (Minic.Interp.run program scheme).Minic.Interp.prints

let test_transform_preserves_semantics () =
  let p = Minic.Parser.parse running_example in
  let transformed, _ = Minic.Pool_transform.transform p in
  let plain = prints p (Runtime.Schemes.native (Vmm.Machine.create ())) in
  let pooled =
    prints transformed (Runtime.Schemes.shadow_pool (Vmm.Machine.create ()))
  in
  check_bool "same output" true (plain = pooled);
  check_bool "prints 7 twice" true (plain = [ 7; 7 ])

(* ---- interpreter ---- *)

let run_prints src =
  prints (Minic.Parser.parse src) (Runtime.Schemes.native (Vmm.Machine.create ()))

let test_interp_arith_and_control () =
  let out =
    run_prints
      "void main() { int i = 0; int acc = 0;\n\
       while (i < 5) { if (i % 2 == 0) { acc = acc + i; } i = i + 1; }\n\
       print(acc); print(-3); print(!0); print(10 / 3); }"
  in
  check_bool "values" true (out = [ 6; -3; 1; 3 ])

let test_interp_recursion () =
  let out =
    run_prints
      "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\n\
       void main() { print(fib(10)); }"
  in
  check_bool "fib" true (out = [ 55 ])

let test_interp_linked_structures () =
  let out =
    run_prints
      "struct s { int v; struct s *next; }\n\
       void main() {\n\
      \  struct s *a = malloc(struct s);\n\
      \  struct s *b = malloc(struct s);\n\
      \  a->v = 10; a->next = b; b->v = 32; b->next = null;\n\
      \  print(a->v + a->next->v);\n\
      \  free(b); free(a);\n\
       }"
  in
  check_bool "list sum" true (out = [ 42 ])

let test_interp_globals () =
  let out =
    run_prints
      "int counter;\n\
       void bump() { counter = counter + 1; }\n\
       void main() { bump(); bump(); bump(); print(counter); }"
  in
  check_bool "global state" true (out = [ 3 ])

let test_interp_null_deref () =
  (match run_prints "struct s { int v; } void main() { struct s *p = null; print(p->v); }" with
   | _ -> Alcotest.fail "expected null deref"
   | exception Minic.Interp.Null_dereference _ -> ())

let test_interp_division_by_zero () =
  (match run_prints "void main() { print(1 / 0); }" with
   | _ -> Alcotest.fail "expected runtime error"
   | exception Minic.Interp.Runtime_error _ -> ())

let test_interp_step_limit () =
  let p = Minic.Parser.parse "void main() { while (1) { } }" in
  (match
     Minic.Interp.run ~max_steps:10_000 p
       (Runtime.Schemes.native (Vmm.Machine.create ()))
   with
   | _ -> Alcotest.fail "expected step-limit error"
   | exception Minic.Interp.Runtime_error _ -> ())

let test_transform_recursion () =
  (* A recursive builder: the class escapes every level through the
     return value, so the pool lands in main; the program must still run
     identically. *)
  let src =
    "struct s { int v; struct s *next; }\n\
     struct s *build(int n) {\n\
    \  if (n == 0) { return null; }\n\
    \  struct s *x = malloc(struct s);\n\
    \  x->v = n;\n\
    \  x->next = build(n - 1);\n\
    \  return x;\n\
     }\n\
     int total(struct s *l) {\n\
    \  if (l == null) { return 0; }\n\
    \  return l->v + total(l->next);\n\
     }\n\
     void main() {\n\
    \  struct s *l = build(10);\n\
    \  print(total(l));\n\
     }"
  in
  let program = Minic.Parser.parse src in
  let transformed, summary = Minic.Pool_transform.transform program in
  Minic.Typecheck.check transformed;
  (match summary.Minic.Pool_transform.pools with
   | [ d ] -> check_string "recursive data owned by main" "main" d.Minic.Pool_transform.owner
   | _ -> Alcotest.fail "expected one pool");
  let out = prints transformed (Runtime.Schemes.shadow_pool (Vmm.Machine.create ())) in
  check_bool "sum 1..10" true (out = [ 55 ])

let test_transform_sibling_pools () =
  (* Two independent data structures in sibling functions get separate
     pools with separate owners. *)
  let src =
    "struct a { int v; }\n\
     struct b { int w; }\n\
     void left() { struct a *x = malloc(struct a); x->v = 1; print(x->v); free(x); }\n\
     void right() { struct b *y = malloc(struct b); y->w = 2; print(y->w); free(y); }\n\
     void main() { left(); right(); }"
  in
  let transformed, summary = Minic.Pool_transform.transform (Minic.Parser.parse src) in
  Minic.Typecheck.check transformed;
  let owners =
    List.sort compare
      (List.map (fun d -> d.Minic.Pool_transform.owner) summary.Minic.Pool_transform.pools)
  in
  check_bool "separate sibling owners" true (owners = [ "left"; "right" ]);
  let out = prints transformed (Runtime.Schemes.shadow_pool (Vmm.Machine.create ())) in
  check_bool "output" true (out = [ 1; 2 ])

let test_transform_descriptor_two_levels () =
  (* The descriptor flows through an intermediate function that neither
     allocates nor frees — only its callee does. *)
  let src =
    "struct s { int v; }\n\
     void do_free(struct s *p) { free(p); }\n\
     void middle(struct s *p) { do_free(p); }\n\
     void main() {\n\
    \  struct s *p = malloc(struct s);\n\
    \  p->v = 3;\n\
    \  print(p->v);\n\
    \  middle(p);\n\
     }"
  in
  let transformed, _ = Minic.Pool_transform.transform (Minic.Parser.parse src) in
  Minic.Typecheck.check transformed;
  (match Minic.Ast.find_func transformed "middle" with
   | Some middle ->
     check_bool "middle threads the descriptor" true
       (middle.Minic.Ast.pool_params <> [])
   | None -> Alcotest.fail "middle missing");
  let out = prints transformed (Runtime.Schemes.shadow_pool (Vmm.Machine.create ())) in
  check_bool "output" true (out = [ 3 ])

(* ---- arrays ---- *)

let array_example =
  {|
struct cell { int v; struct cell *link; }

int fill_and_sum(struct cell *arr, int n) {
  int i = 0;
  while (i < n) {
    arr[i]->v = i * 2;
    arr[i]->link = null;
    i = i + 1;
  }
  int acc = 0;
  i = 0;
  while (i < n) {
    acc = acc + arr[i]->v;
    i = i + 1;
  }
  return acc;
}

void main() {
  struct cell *arr = malloc(struct cell, 100);
  print(fill_and_sum(arr, 100));
  arr[7]->link = arr[3];
  print(arr[7]->link->v);
  free(arr);
}
|}

let test_array_parse_and_types () =
  let p = Minic.Parser.parse array_example in
  Minic.Typecheck.check p;
  (* Round-trips through the pretty printer. *)
  Minic.Typecheck.check (Minic.Parser.parse (Minic.Pretty.program_to_string p))

let test_array_semantics () =
  let out = run_prints array_example in
  check_bool "sum of 2i for i<100 and arr[3].v" true (out = [ 9900; 6 ])

let test_array_transform_preserved () =
  let p = Minic.Parser.parse array_example in
  let transformed, summary = Minic.Pool_transform.transform p in
  Minic.Typecheck.check transformed;
  check_int "array site rewritten" 1 summary.Minic.Pool_transform.sites_rewritten;
  let pooled =
    prints transformed (Runtime.Schemes.shadow_pool (Vmm.Machine.create ()))
  in
  check_bool "output preserved" true (pooled = [ 9900; 6 ])

let test_array_uaf_detected () =
  (* A 100-element array spans multiple pages; a stale access to a
     middle element must trap on its (multi-page) shadow range. *)
  let src =
    "struct cell { int v; struct cell *link; }\n\
     void main() {\n\
    \  struct cell *arr = malloc(struct cell, 400);\n\
    \  arr[250]->v = 1;\n\
    \  free(arr);\n\
    \  print(arr[250]->v);\n\
     }"
  in
  let transformed, _ = Minic.Pool_transform.transform (Minic.Parser.parse src) in
  (match
     Minic.Interp.run transformed
       (Runtime.Schemes.shadow_pool (Vmm.Machine.create ()))
   with
   | _ -> Alcotest.fail "stale array access not detected"
   | exception Shadow.Report.Violation r ->
     (match r.Shadow.Report.kind, r.Shadow.Report.object_info with
      | Shadow.Report.Use_after_free _, Some info ->
        check_int "interior offset diagnosed" (250 * 16)
          info.Shadow.Report.offset
      | _ -> Alcotest.fail "wrong diagnosis"))

let test_array_count_errors () =
  let p =
    Minic.Parser.parse
      "struct s { int v; } void main() { struct s *a = malloc(struct s, 0); a->v = 1; }"
  in
  (match Minic.Interp.run p (Runtime.Schemes.native (Vmm.Machine.create ())) with
   | _ -> Alcotest.fail "zero-count malloc should fail"
   | exception Minic.Interp.Runtime_error _ -> ());
  (match
     Minic.Typecheck.check
       (Minic.Parser.parse
          "struct s { int v; } void main() { struct s *a = malloc(struct s, null); free(a); }")
   with
   | _ -> Alcotest.fail "pointer count should be rejected"
   | exception Minic.Typecheck.Type_error _ -> ())

(* ---- differential property: random programs ---- *)

(* Generate small, correct MiniC programs from composable fragments
   (list builders, summers, pruners, releasers — optionally via a
   global), then check that the pool transform preserves the printed
   output exactly, running the original under the plain allocator and
   the transformed program under the full shadow-pool scheme.  This
   exercises descriptor threading, owner placement, global pools and
   destroy-on-return across a far larger program space than the
   hand-written cases. *)
let generate_program ~lists ~use_global ~prune ~seed =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "struct node { int v; struct node *next; }";
  if use_global then add "struct node *stash;";
  add "struct node *build(int n, int seed) {";
  add "  struct node *head = null;";
  add "  int i = 0;";
  add "  while (i < n) {";
  add "    struct node *fresh = malloc(struct node);";
  add "    fresh->v = seed + i;";
  add "    fresh->next = head;";
  add "    head = fresh;";
  add "    i = i + 1;";
  add "  }";
  add "  return head;";
  add "}";
  add "int total(struct node *head) {";
  add "  int acc = 0;";
  add "  struct node *cur = head;";
  add "  while (cur != null) { acc = acc + cur->v; cur = cur->next; }";
  add "  return acc;";
  add "}";
  add "struct node *prune(struct node *head) {";
  add "  struct node *cur = head;";
  add "  while (cur != null) {";
  add "    struct node *nxt = cur->next;";
  add "    if (nxt != null) {";
  add "      cur->next = nxt->next;";
  add "      free(nxt);";
  add "      cur = cur->next;";
  add "    } else { cur = null; }";
  add "  }";
  add "  return head;";
  add "}";
  add "void release(struct node *head) {";
  add "  struct node *cur = head;";
  add "  while (cur != null) {";
  add "    struct node *nxt = cur->next;";
  add "    free(cur);";
  add "    cur = nxt;";
  add "  }";
  add "}";
  add "void main() {";
  List.iteri
    (fun i n ->
      add "  struct node *l%d = build(%d, %d);" i n (seed + (i * 17));
      add "  print(total(l%d));" i;
      if prune && n > 1 then begin
        add "  l%d = prune(l%d);" i i;
        add "  print(total(l%d));" i
      end;
      if use_global && i = 0 then begin
        add "  stash = l%d;" i;
        add "  print(stash->v);"
      end;
      add "  release(l%d);" i;
      add "  l%d = null;" i;
      if use_global && i = 0 then add "  stash = null;")
    lists;
  add "}";
  Buffer.contents b

let prop_transform_differential =
  QCheck.Test.make ~name:"transform: output preserved on random programs"
    ~count:40
    QCheck.(
      quad
        (list_of_size (Gen.int_range 1 3) (int_range 1 10))
        bool bool small_int)
    (fun (lists, use_global, prune, seed) ->
      let source = generate_program ~lists ~use_global ~prune ~seed in
      let program = Minic.Parser.parse source in
      Minic.Typecheck.check program;
      let transformed, summary = Minic.Pool_transform.transform program in
      Minic.Typecheck.check transformed;
      let plain = prints program (Runtime.Schemes.native (Vmm.Machine.create ())) in
      let pooled =
        prints transformed (Runtime.Schemes.shadow_pool (Vmm.Machine.create ()))
      in
      plain = pooled && summary.Minic.Pool_transform.pools <> [])

let prop_transform_global_ownership =
  QCheck.Test.make ~name:"transform: global-reachable data gets a main pool"
    ~count:20
    QCheck.(pair (int_range 1 8) small_int)
    (fun (n, seed) ->
      let source =
        generate_program ~lists:[ n ] ~use_global:true ~prune:false ~seed
      in
      let _, summary = Minic.Pool_transform.transform (Minic.Parser.parse source) in
      (* The stashed list's class escapes to a global, so some pool must
         be global and owned by main. *)
      List.exists
        (fun (d : Minic.Pool_transform.pool_desc) ->
          d.Minic.Pool_transform.global
          && d.Minic.Pool_transform.owner = "main")
        summary.Minic.Pool_transform.pools)

(* ---- end to end: the Figure 1 bug ---- *)

let test_figure1_bug_detected_under_shadow () =
  let transformed, _ =
    Minic.Pool_transform.transform (Minic.Parser.parse buggy_example)
  in
  let m = Vmm.Machine.create () in
  (match Minic.Interp.run transformed (Runtime.Schemes.shadow_pool m) with
   | _ -> Alcotest.fail "dangling deref not detected"
   | exception Shadow.Report.Violation r ->
     check_bool "use-after-free" true
       (match r.Shadow.Report.kind with
        | Shadow.Report.Use_after_free _ -> true
        | _ -> false))

let test_figure1_bug_silent_under_native () =
  let p = Minic.Parser.parse buggy_example in
  let out = prints p (Runtime.Schemes.native (Vmm.Machine.create ())) in
  check_int "native reads stale memory silently" 1 (List.length out)

let test_figure1_bug_detected_without_pools () =
  (* Binary-only mode: no transform at all, shadow pages still catch it. *)
  let p = Minic.Parser.parse buggy_example in
  let m = Vmm.Machine.create () in
  (match Minic.Interp.run p (Runtime.Schemes.shadow_basic m) with
   | _ -> Alcotest.fail "dangling deref not detected"
   | exception Shadow.Report.Violation _ -> ())

let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments/lines" `Quick
            test_lexer_comments_and_lines;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "errors" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "running example" `Quick
            test_parse_running_example;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "error line" `Quick test_parse_error_reports_line;
          Alcotest.test_case "globals" `Quick test_parse_globals;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "accepts example" `Quick test_typecheck_ok;
          Alcotest.test_case "unknown field" `Quick test_typecheck_unknown_field;
          Alcotest.test_case "unknown var" `Quick test_typecheck_unknown_var;
          Alcotest.test_case "bad malloc" `Quick test_typecheck_bad_malloc;
          Alcotest.test_case "arity" `Quick test_typecheck_arity;
          Alcotest.test_case "void return" `Quick test_typecheck_void_return;
          Alcotest.test_case "duplicate definitions" `Quick
            test_typecheck_duplicates;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "points-to classes" `Quick test_points_to_example;
          Alcotest.test_case "escape" `Quick test_escape_example;
          Alcotest.test_case "globals escape" `Quick test_escape_globals;
        ] );
      ( "transform",
        [
          Alcotest.test_case "running example" `Quick
            test_transform_running_example;
          Alcotest.test_case "global pool" `Quick test_transform_global_pool;
          Alcotest.test_case "requires main" `Quick test_transform_requires_main;
          Alcotest.test_case "early returns" `Quick test_transform_early_returns;
          Alcotest.test_case "semantics preserved" `Quick
            test_transform_preserves_semantics;
          Alcotest.test_case "recursion -> main pool" `Quick
            test_transform_recursion;
          Alcotest.test_case "sibling pools" `Quick test_transform_sibling_pools;
          Alcotest.test_case "descriptor two levels" `Quick
            test_transform_descriptor_two_levels;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arith/control" `Quick
            test_interp_arith_and_control;
          Alcotest.test_case "recursion" `Quick test_interp_recursion;
          Alcotest.test_case "linked structures" `Quick
            test_interp_linked_structures;
          Alcotest.test_case "globals" `Quick test_interp_globals;
          Alcotest.test_case "null deref" `Quick test_interp_null_deref;
          Alcotest.test_case "division by zero" `Quick
            test_interp_division_by_zero;
          Alcotest.test_case "step limit" `Quick test_interp_step_limit;
        ] );
      ( "arrays",
        [
          Alcotest.test_case "parse + types" `Quick test_array_parse_and_types;
          Alcotest.test_case "semantics" `Quick test_array_semantics;
          Alcotest.test_case "transform preserved" `Quick
            test_array_transform_preserved;
          Alcotest.test_case "stale array access" `Quick test_array_uaf_detected;
          Alcotest.test_case "count errors" `Quick test_array_count_errors;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_transform_differential; prop_transform_global_ownership ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figure 1 bug detected" `Quick
            test_figure1_bug_detected_under_shadow;
          Alcotest.test_case "figure 1 silent natively" `Quick
            test_figure1_bug_silent_under_native;
          Alcotest.test_case "figure 1 without pools" `Quick
            test_figure1_bug_detected_without_pools;
        ] );
    ]
