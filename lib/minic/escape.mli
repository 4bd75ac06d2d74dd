(** Escape analysis over {!Dsa} points-to classes: reachability from a
    function's formals, its return value, and the globals — the paper's
    "standard compiler analysis … much simpler, but can be less precise,
    than that required for static detection of dangling pointer
    references".  A pool can be created and destroyed inside a function
    exactly when its class does not escape that function. *)

val reachable_from_globals : Dsa.t -> Ast.program -> Dsa.class_id list
(** Classes reachable from any global variable: these data structures
    must live in global (long-lived) pools. *)

val escapes : Dsa.t -> Ast.func -> Dsa.class_id -> bool
(** Whether the class is reachable from the function's parameters or
    return value (globals are handled separately by
    {!reachable_from_globals}). *)
