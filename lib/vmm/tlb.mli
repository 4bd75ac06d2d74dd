(** A set-associative translation lookaside buffer model.

    The paper's second overhead source is TLB pressure: every live object
    sits on its own virtual page, so programs touch far more distinct
    pages than their native versions.  We model a small data TLB
    (default: 64 entries, 4-way, LRU within a set) and charge
    {!Cost_model.t.tlb_miss_penalty} per miss.

    Entries cache the full packed page-table entry — translation {e and}
    protection bits — so a TLB hit answers an access without touching
    the page table at all (real hardware caches protection bits the same
    way).  Correctness therefore rests on shootdowns: the kernel
    invalidates affected pages on every [mprotect], [munmap] and remap,
    making stale entries impossible by construction. *)

type t

val create : ?entries:int -> ?ways:int -> unit -> t
(** Default: 64 entries, 4 ways. [entries] must be a multiple of [ways]. *)

val lookup_pte : t -> Stats.t -> page:int -> Pte.t
(** Probe the TLB: the cached packed entry, or {!Pte.none} on a miss.
    Counts a hit or a miss; allocation-free — the MMU fast path. *)

val lookup : t -> Stats.t -> page:int -> (Frame_table.frame * Perm.t) option
(** Convenience view of {!lookup_pte} for tests and diagnostics. *)

val insert_pte : t -> page:int -> pte:Pte.t -> unit
(** Fill after a page-table walk (evicts LRU way of the set). *)

val insert : t -> page:int -> frame:Frame_table.frame -> perm:Perm.t -> unit

val invalidate_page : t -> page:int -> unit
(** Single-page shootdown (on remap of one page). *)

val invalidate_range : t -> page:int -> pages:int -> unit
(** Ranged shootdown (on [mprotect]/[munmap] of a region): one sweep
    over the TLB for wide ranges rather than a probe per page. *)

val flush : t -> Stats.t -> unit
(** Full flush (e.g. on simulated [fork]/context switch). *)

val resident_pages : t -> int list
(** Diagnostic: the pages currently cached, ascending. *)

val capacity : t -> int
