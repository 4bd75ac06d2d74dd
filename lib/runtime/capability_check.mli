(** SafeC / FisherPatil / Xu-et-al-style capability checking.

    Every allocation mints a fresh capability in a Global Capability
    Store; pointers carry the capability (we emulate the fat pointer /
    side metadata by tagging the returned address with the capability id
    in its high bits, which survives ordinary pointer arithmetic).  Every
    access checks membership in the store; [free] retires the
    capability, so {e all} dangling uses are detected even after the
    memory is re-allocated — at the price of a software check on every
    single access and a capability store that grows with the heap
    (the 1.6x–4x memory overhead the paper cites for this family). *)

type config = {
  check_cost : int;   (** instructions per access check *)
  update_cost : int;  (** instructions per capability insert/remove *)
}

val default_config : config
(** 10-instruction checks, 15-instruction updates. *)

val scheme : ?config:config -> Vmm.Machine.t -> Scheme.t
