(** Event counters for a simulated machine.

    Every MMU access, TLB lookup, syscall and fault is counted here; the
    {!Cost_model} turns a snapshot of these counters into simulated
    cycles.  Counters are monotonically increasing; use {!snapshot} and
    {!diff} to measure a region of execution.

    The counters live directly in a {!Telemetry.Metrics} registry (names
    ["vmm.loads"], ["vmm.faults"], ...): the count sites in
    {!Kernel}/{!Mmu} write through handles cached at creation time, so
    there is no separate sync step and the registry exporters always see
    the live values.  [t] itself is just that bundle of cached handles;
    {!snapshot} is the read-only view the rest of the system consumes. *)

type t

type syscall_kind =
  | Sys_mmap
  | Sys_mremap   (** shadow-page aliasing, the paper's per-allocation call *)
  | Sys_mprotect (** page protection flip, the paper's per-free call *)
  | Sys_munmap
  | Sys_dummy    (** no-op syscall used by the "PA + dummy syscalls" column *)

type snapshot = {
  instructions : int;  (** non-memory work accounted by workloads *)
  loads : int;
  stores : int;
  tlb_hits : int;
  tlb_misses : int;
  tlb_flushes : int;
  tlb_shootdowns : int;
      (** ranged TLB shootdown operations (one per [mprotect]/[munmap]
          call, however many pages it covers) *)
  tlb_shootdown_pages : int;
      (** total pages invalidated by those shootdowns *)
  cache_hits : int;
  cache_misses : int;
  syscalls_mmap : int;
  syscalls_mremap : int;
  syscalls_mprotect : int;
  syscalls_munmap : int;
  syscalls_dummy : int;
  faults : int;
  syscalls_failed : int;
      (** syscall attempts that returned an error through the
          {!Syscalls} boundary (injected faults and kernel rejections) *)
  syscall_retries : int;
      (** transient-failure retries performed by [Runtime.Retry] *)
  pages_mapped : int;      (** page-table entries created, cumulative *)
  frames_allocated : int;  (** physical frames ever allocated, cumulative *)
  alloc_ops : int;  (** heap allocations completed (malloc-level ops) *)
  free_ops : int;   (** heap frees completed (free-level ops) *)
}

val create : ?registry:Telemetry.Metrics.t -> unit -> t
(** Fresh counters (all zero) in a fresh registry by default.  Passing
    [registry] attaches to (get-or-creates the ["vmm.*"] counters of) an
    existing registry; if those counters already hold counts, the new
    handle keeps accumulating on top — which is how several machines can
    share one registry deliberately.  Note that {!Machine.cycles} prices
    the whole snapshot, so a shared registry makes per-machine cycle
    readings cumulative. *)

val registry : t -> Telemetry.Metrics.t
(** The live registry behind the counters. *)

val count_instructions : t -> int -> unit
val count_load : t -> unit
val count_store : t -> unit
val count_tlb_hit : t -> unit
val count_tlb_miss : t -> unit
val count_tlb_flush : t -> unit

val count_tlb_shootdown : t -> pages:int -> unit
(** One ranged shootdown covering [pages] pages: increments the
    operation count by one and the page count by [pages]. *)

val count_cache_hit : t -> unit
val count_cache_miss : t -> unit
val count_syscall : t -> syscall_kind -> unit
val count_fault : t -> unit
val count_syscall_failed : t -> unit
val count_syscall_retry : t -> unit
val count_page_mapped : t -> unit
val count_frame_allocated : t -> unit

val count_alloc_op : t -> unit
(** One completed heap allocation, whatever its protection path (full
    shadow aliasing, slab hit, or elided). *)

val count_free_op : t -> unit
(** One completed heap free, including frees merely enqueued into an
    epoch quarantine. *)

val snapshot : t -> snapshot
val zero : snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference. *)

val sum : snapshot -> snapshot -> snapshot
(** Per-field addition, for aggregating across machines (e.g. one per
    forked connection). *)

val total_syscalls : snapshot -> int

val protection_syscalls : snapshot -> int
(** Syscalls attributable to dangling-pointer protection: mremap
    (shadow aliasing) + mprotect (protection flips) + munmap. *)

val heap_ops : snapshot -> int
(** [alloc_ops + free_ops]. *)

val syscalls_per_op : snapshot -> float option
(** [protection_syscalls / heap_ops], or [None] when the snapshot saw
    no allocator traffic — the derived metric `danguard report` and the
    bench sections surface. *)

val pp : Format.formatter -> snapshot -> unit

val field_values : snapshot -> (string * int) list
(** Counter name/value pairs under the ["vmm."] namespace (the same
    names the live registry carries), in declaration order. *)

val add_snapshot : t -> snapshot -> unit
(** Add every field of the snapshot onto [t]'s counters.  Aggregators
    that sum many short-lived machines — e.g. one forked connection
    each — into one mergeable registry build [t] once with
    [create ~registry] and call this per machine: no name lookups and
    no allocation per call. *)

val snapshot_to_json : snapshot -> Telemetry.Json.t
(** [{"vmm.instructions": n, ...}] — a flat counter object. *)
