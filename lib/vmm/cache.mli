(** A physically-indexed, physically-tagged data-cache model.

    The paper argues a key practical advantage over Electric Fence: the
    shadow scheme leaves the {e physical} layout of objects untouched, so
    a physically-indexed cache behaves exactly as in the unprotected
    program, while one-object-per-physical-page schemes destroy spatial
    locality.  This model makes that claim measurable: the MMU drives it
    with physical line addresses and the hit/miss counts land in
    {!Stats}.

    By default the cost model charges nothing per miss (the paper's
    cycle calibration keeps cache effects inside the code-quality
    factor); the cache ablation bench uses
    {!Cost_model.with_cache_penalty} to expose them. *)

type t

val create : ?sets:int -> ?ways:int -> ?line_bytes:int -> unit -> t
(** Default: 256 sets x 4 ways x 64-byte lines = 64 KiB, LRU.  A set's
    storage is built on its first access. *)

val access : t -> Stats.t -> phys_addr:int -> unit
(** Look up the line containing the physical byte address; counts a
    cache hit or miss and fills on miss, evicting the least recently
    used way.  Allocation-free once the set is built. *)

val flush : t -> unit

val resident_lines : t -> int list
(** Diagnostic: the line numbers currently cached, ascending. *)

val capacity_bytes : t -> int
