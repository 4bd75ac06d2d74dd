(** DSA-lite: field-sensitive unification points-to analysis, the one
    points-to analysis behind {!Dangling}, {!Escape},
    {!Pool_transform} and {!Poolify}.

    Steensgaard-style unification over a finite node graph with
    allocation-site-keyed heap nodes and the positional site numbering
    of {!iter_malloc_sites}, plus one structural refinement: object
    nodes keep one points-to edge {e per field name} instead of a
    single collapsed field node.  [p->a] and [p->b] therefore land in
    distinct classes unless the program itself aliases them, which
    keeps {!Dangling} from reporting "freeing [p->a] poisons [p->b]"
    and gives field-disjoint structures separate pools.

    Call sites unify actuals with the callee's formals and the call
    result with the callee's return node — the callee's summary graph
    is inlined into the one global graph, context-insensitively.  This
    is deliberate: {!Dangling}'s interprocedural effect summaries
    (may-free sets, entry states) are indexed by global class id, and
    per-call-site cloning would break the callee-class/caller-class
    correspondence those summaries need to stay sound.

    Freezing assigns deterministic class ids (sites in program order,
    then variables and returns by name, then a breadth-first edge
    closure), so repeated runs over the same program produce identical
    partitions — the pool-map determinism gate depends on this. *)

type class_id = int

type t
(** Frozen analysis result. *)

val iter_malloc_sites :
  Ast.program ->
  (site:int -> fname:string -> struct_name:string -> pos:Ast.pos -> unit) ->
  unit
(** Visit every malloc site in deterministic program order, assigning
    the site numbering shared between analysis and transform: functions
    in program order, statements in order, expressions left-to-right.
    [pos] is the source position the site carries ({!Ast.no_pos} for
    programmatically built ASTs). *)

val analyze : Ast.program -> t
(** Build and freeze the points-to partition.  The program should
    already typecheck; behaviour on ill-typed programs is unspecified
    (no exception guarantees). *)

val heap_classes : t -> class_id list
(** Classes containing at least one allocation site, sorted. *)

val class_count : t -> int

val site_class : t -> int -> class_id
(** Class allocated into by the [n]-th malloc site in program order
    (the {!iter_malloc_sites} numbering).
    @raise Invalid_argument on unknown sites. *)

val var_class : t -> fname:string -> string -> class_id option
(** Class of variable [name] in function [fname] (falls back to the
    global scope). *)

val ret_class : t -> string -> class_id option
val pointee : t -> class_id -> class_id option

val succ : t -> class_id -> class_id list
(** All outgoing edges: pointee (if any) then field targets in
    field-name order. *)

val struct_hint : t -> class_id -> string option

val struct_names : t -> class_id -> string list
(** Every struct name allocated into the class, sorted: a singleton
    means the class is type-homogeneous (the paper's type-safe-pool
    condition). *)

val expr_pointee_class : t -> fname:string -> Ast.expr -> class_id option
(** Class of the object a [Var] / [Field] / [Index] / [Call] expression
    points to; [None] for non-pointers and for [Malloc] expressions,
    which consumers resolve positionally through the site numbering. *)
