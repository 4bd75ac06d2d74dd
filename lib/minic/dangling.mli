(** Flow-sensitive, interprocedural dangling-pointer analysis.

    Every [free], dereference ([Field]/[Index]/[Store]) and double-free
    candidate gets a verdict over the {Alive, MaybeFreed, MustFreed}
    lattice, with field-sensitive {!Dsa} classes providing the aliasing
    and per-site freshness providing the "provably a different object"
    escape hatch.  Function behaviour is summarised (transitive may-free
    class set, joined entry/return states) and the whole program is
    iterated to a fixpoint.

    Soundness contract (enforced by the differential oracle in
    test/test_dangling.ml): a dynamic temporal violation can only occur
    at a site marked {!May_uaf} or {!Must_uaf}; allocation sites whose
    class has only {!Safe} uses may therefore skip runtime shadow
    protection without losing detections — see {!elide_policy} and
    the [Elided] mode of [Runtime.Schemes.shadow_pool]. *)

type verdict = Safe | May_uaf | Must_uaf

val verdict_label : verdict -> string
(** ["safe"], ["may-uaf"], ["must-uaf"]. *)

val verdict_max : verdict -> verdict -> verdict
(** Severity join: [Must_uaf > May_uaf > Safe]. *)

type use_kind = Deref | Free_op

val kind_label : use_kind -> string

type finding = {
  fname : string;       (** enclosing function *)
  pos : Ast.pos;        (** source position of the use *)
  kind : use_kind;
  verdict : verdict;
  class_id : int option;  (** object class dereferenced / freed *)
  witness : string;     (** for May/Must: the path evidence, e.g.
                            ["value freed at main@6:3"] *)
}

type site = {
  ordinal : int;        (** {!Dsa.iter_malloc_sites} numbering *)
  fname : string;
  struct_name : string;
  pos : Ast.pos;
  class_id : int;
  verdict : verdict;    (** the class verdict; [Safe] means every use of
                            every object of the class is Safe, so the
                            site may skip shadow protection *)
}

type result = {
  findings : finding list;  (** sorted by position *)
  sites : site list;        (** every malloc site, in program order *)
  class_verdicts : (int * verdict) list;  (** heap classes only *)
}

val analyze : Ast.program -> result
(** Runs {!Typecheck.check} first; raises {!Typecheck.Type_error} or
    {!Ast.Semantic_error} on malformed input.  The partition is
    field-sensitive, so freeing [p->a] does not poison [p->b]. *)

val analyze_with : Dsa.t -> Ast.program -> result
(** {!analyze} over a partition already computed on this exact program
    (so the positional site numbering agrees). *)

val elide_policy : result -> string -> bool
(** [elide_policy r site] is [true] iff the runtime allocation-site
    string [site] (ending in ["@line:col"], see {!Interp}) corresponds
    to a malloc site whose class verdict is [Safe].  Position-less or
    unknown sites always answer [false] (keep protection). *)

val count_findings : result -> int * int * int
(** (safe, may, must) finding counts. *)

val has_must : result -> bool
