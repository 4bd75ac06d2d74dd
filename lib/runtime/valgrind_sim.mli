(** A Valgrind/memcheck-style checker model: dynamic binary translation
    plus software validity checks on every access, with freed blocks held
    in a bounded quarantine to {e delay} (not prevent) reuse.

    Two properties matter for the paper's comparison and both are
    modeled: the overhead is orders of magnitude above the paper's
    scheme (every access pays an instrumented check, and all computation
    runs under translation), and detection is only {e heuristic} — once a
    freed block leaves the quarantine and its memory is re-allocated, a
    dangling use of the old pointer reads the new object silently. *)

type config = {
  quarantine_blocks : int;  (** freed blocks retained before real free *)
  access_check_cost : int;  (** instrumentation instructions per access *)
  dbt_factor : float;       (** translation slowdown on plain computation *)
}

val default_config : config
(** 1000-block quarantine, 60 instructions per access check, 12x DBT. *)

val scheme : ?config:config -> Vmm.Machine.t -> Scheme.t
