(** Electric Fence (Perens) / PageHeap model: one object per virtual
    {e and physical} page (or pages), protected on free and never reused.

    Detects every dangling use, like the paper's scheme — but each
    allocation consumes at least one whole physical frame, so memory
    blows up by orders of magnitude on small-object workloads (the paper
    notes enscript runs out of physical memory under Electric Fence).
    An optional guard page after each object also catches overruns. *)

val scheme : ?guard_pages:bool -> Vmm.Machine.t -> Scheme.t
(** [guard_pages] defaults to true. *)
