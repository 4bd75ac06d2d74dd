(** Physical memory: a growable set of reference-counted page frames.

    Each frame is one page of byte storage.  Frames are reference-counted
    because the whole point of the paper's scheme is that several virtual
    pages (one canonical, many shadow) alias one physical frame; a frame
    is released only when its last mapping is removed.

    Frames live in a slot array indexed by frame number (lookup is one
    array read, no hashing); retired frame numbers are reused, as a real
    physical page allocator would, so memory is bounded by the peak —
    not cumulative — frame count.

    Frames are demand-zero: a frame gets its page of storage on its
    first write (a retired buffer, zero-filled, or a fresh one).  Until
    then every read returns 0, and a frame never written costs no
    storage at all.  Frame counts ({!live_frames}, {!peak_frames}, the
    [frames_allocated] stat) count frames, not materialised storage. *)

type t
type frame = int (** Physical frame number. *)

val create : unit -> t

val allocate : t -> Stats.t -> frame
(** Allocate a zeroed frame with reference count 0 (the caller maps it,
    which takes the first reference).  Frame numbers of fully released
    frames may be reused.  No storage is attached until the first
    write. *)

val incr_ref : t -> frame -> unit
val decr_ref : t -> frame -> unit
(** Release one mapping reference.  The frame's storage, if it was ever
    written, is kept for reuse when the count drops to zero. *)

val ref_count : t -> frame -> int
val live_frames : t -> int
(** Number of frames currently allocated — the program's physical memory
    footprint in pages. *)

val peak_frames : t -> int
(** High-water mark of {!live_frames}. *)

val read_byte : t -> frame -> int -> int
val write_byte : t -> frame -> int -> int -> unit
(** [read_byte t f off] / [write_byte t f off v]: byte access within a
    frame; [off] in [\[0, page_size)], [v] in [\[0, 256)]. *)

val read_word : t -> frame -> int -> width:int -> int
val write_word : t -> frame -> int -> int -> width:int -> unit
(** Word-wide little-endian access: one frame lookup and one [Bytes]
    word primitive for the whole value.  [width] in 1/2/4/8;
    [off + width] must not exceed the page.  Bit-compatible with the
    byte accessors (an 8-byte value round-trips modulo 2^63, exactly as
    the per-byte loop did). *)

val exists : t -> frame -> bool

val lookup_count : t -> int
(** Diagnostic: total slot lookups performed — the fast-path tests use
    this to prove a word access costs exactly one frame lookup. *)
