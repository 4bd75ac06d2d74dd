type syscall_kind =
  | Sys_mmap
  | Sys_mremap
  | Sys_mprotect
  | Sys_munmap
  | Sys_dummy

(* The machine's event counters ARE telemetry counters: every count_*
   site below writes straight into a [Telemetry.Metrics] registry
   through handles cached at creation time, so the hot path stays one
   mutable-field update and there is no separate sync step — the
   registry exporters always see the live values. *)
type t = {
  registry : Telemetry.Metrics.t;
  instructions : Telemetry.Metrics.counter;
  loads : Telemetry.Metrics.counter;
  stores : Telemetry.Metrics.counter;
  tlb_hits : Telemetry.Metrics.counter;
  tlb_misses : Telemetry.Metrics.counter;
  tlb_flushes : Telemetry.Metrics.counter;
  tlb_shootdowns : Telemetry.Metrics.counter;
  tlb_shootdown_pages : Telemetry.Metrics.counter;
  cache_hits : Telemetry.Metrics.counter;
  cache_misses : Telemetry.Metrics.counter;
  syscalls_mmap : Telemetry.Metrics.counter;
  syscalls_mremap : Telemetry.Metrics.counter;
  syscalls_mprotect : Telemetry.Metrics.counter;
  syscalls_munmap : Telemetry.Metrics.counter;
  syscalls_dummy : Telemetry.Metrics.counter;
  faults : Telemetry.Metrics.counter;
  syscalls_failed : Telemetry.Metrics.counter;
  syscall_retries : Telemetry.Metrics.counter;
  pages_mapped : Telemetry.Metrics.counter;
  frames_allocated : Telemetry.Metrics.counter;
  alloc_ops : Telemetry.Metrics.counter;
  free_ops : Telemetry.Metrics.counter;
}

type snapshot = {
  instructions : int;
  loads : int;
  stores : int;
  tlb_hits : int;
  tlb_misses : int;
  tlb_flushes : int;
  tlb_shootdowns : int;
  tlb_shootdown_pages : int;
  cache_hits : int;
  cache_misses : int;
  syscalls_mmap : int;
  syscalls_mremap : int;
  syscalls_mprotect : int;
  syscalls_munmap : int;
  syscalls_dummy : int;
  faults : int;
  syscalls_failed : int;
  syscall_retries : int;
  pages_mapped : int;
  frames_allocated : int;
  alloc_ops : int;
  free_ops : int;
}

let create ?registry () : t =
  let registry =
    match registry with
    | Some r -> r
    | None -> Telemetry.Metrics.create ()
  in
  let c name = Telemetry.Metrics.counter registry name in
  {
    registry;
    instructions = c "vmm.instructions";
    loads = c "vmm.loads";
    stores = c "vmm.stores";
    tlb_hits = c "vmm.tlb_hits";
    tlb_misses = c "vmm.tlb_misses";
    tlb_flushes = c "vmm.tlb_flushes";
    tlb_shootdowns = c "vmm.tlb_shootdowns";
    tlb_shootdown_pages = c "vmm.tlb_shootdown_pages";
    cache_hits = c "vmm.cache_hits";
    cache_misses = c "vmm.cache_misses";
    syscalls_mmap = c "vmm.syscalls_mmap";
    syscalls_mremap = c "vmm.syscalls_mremap";
    syscalls_mprotect = c "vmm.syscalls_mprotect";
    syscalls_munmap = c "vmm.syscalls_munmap";
    syscalls_dummy = c "vmm.syscalls_dummy";
    faults = c "vmm.faults";
    syscalls_failed = c "vmm.syscalls_failed";
    syscall_retries = c "vmm.syscall_retries";
    pages_mapped = c "vmm.pages_mapped";
    frames_allocated = c "vmm.frames_allocated";
    alloc_ops = c "vmm.alloc_ops";
    free_ops = c "vmm.free_ops";
  }

let registry (t : t) = t.registry

let count_instructions (t : t) n = Telemetry.Metrics.add t.instructions n
let count_load (t : t) = Telemetry.Metrics.incr t.loads
let count_store (t : t) = Telemetry.Metrics.incr t.stores
let count_tlb_hit (t : t) = Telemetry.Metrics.incr t.tlb_hits
let count_tlb_miss (t : t) = Telemetry.Metrics.incr t.tlb_misses
let count_tlb_flush (t : t) = Telemetry.Metrics.incr t.tlb_flushes

let count_tlb_shootdown (t : t) ~pages =
  Telemetry.Metrics.incr t.tlb_shootdowns;
  Telemetry.Metrics.add t.tlb_shootdown_pages pages

let count_cache_hit (t : t) = Telemetry.Metrics.incr t.cache_hits
let count_cache_miss (t : t) = Telemetry.Metrics.incr t.cache_misses

let count_syscall (t : t) = function
  | Sys_mmap -> Telemetry.Metrics.incr t.syscalls_mmap
  | Sys_mremap -> Telemetry.Metrics.incr t.syscalls_mremap
  | Sys_mprotect -> Telemetry.Metrics.incr t.syscalls_mprotect
  | Sys_munmap -> Telemetry.Metrics.incr t.syscalls_munmap
  | Sys_dummy -> Telemetry.Metrics.incr t.syscalls_dummy

let count_fault (t : t) = Telemetry.Metrics.incr t.faults
let count_syscall_failed (t : t) = Telemetry.Metrics.incr t.syscalls_failed
let count_syscall_retry (t : t) = Telemetry.Metrics.incr t.syscall_retries
let count_page_mapped (t : t) = Telemetry.Metrics.incr t.pages_mapped

let count_frame_allocated (t : t) =
  Telemetry.Metrics.incr t.frames_allocated

let count_alloc_op (t : t) = Telemetry.Metrics.incr t.alloc_ops
let count_free_op (t : t) = Telemetry.Metrics.incr t.free_ops

let snapshot (t : t) : snapshot =
  let v = Telemetry.Metrics.counter_value in
  {
    instructions = v t.instructions;
    loads = v t.loads;
    stores = v t.stores;
    tlb_hits = v t.tlb_hits;
    tlb_misses = v t.tlb_misses;
    tlb_flushes = v t.tlb_flushes;
    tlb_shootdowns = v t.tlb_shootdowns;
    tlb_shootdown_pages = v t.tlb_shootdown_pages;
    cache_hits = v t.cache_hits;
    cache_misses = v t.cache_misses;
    syscalls_mmap = v t.syscalls_mmap;
    syscalls_mremap = v t.syscalls_mremap;
    syscalls_mprotect = v t.syscalls_mprotect;
    syscalls_munmap = v t.syscalls_munmap;
    syscalls_dummy = v t.syscalls_dummy;
    faults = v t.faults;
    syscalls_failed = v t.syscalls_failed;
    syscall_retries = v t.syscall_retries;
    pages_mapped = v t.pages_mapped;
    frames_allocated = v t.frames_allocated;
    alloc_ops = v t.alloc_ops;
    free_ops = v t.free_ops;
  }

let zero : snapshot =
  {
    instructions = 0;
    loads = 0;
    stores = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    tlb_flushes = 0;
    tlb_shootdowns = 0;
    tlb_shootdown_pages = 0;
    cache_hits = 0;
    cache_misses = 0;
    syscalls_mmap = 0;
    syscalls_mremap = 0;
    syscalls_mprotect = 0;
    syscalls_munmap = 0;
    syscalls_dummy = 0;
    faults = 0;
    syscalls_failed = 0;
    syscall_retries = 0;
    pages_mapped = 0;
    frames_allocated = 0;
    alloc_ops = 0;
    free_ops = 0;
  }

let diff (a : snapshot) (b : snapshot) : snapshot =
  {
    instructions = a.instructions - b.instructions;
    loads = a.loads - b.loads;
    stores = a.stores - b.stores;
    tlb_hits = a.tlb_hits - b.tlb_hits;
    tlb_misses = a.tlb_misses - b.tlb_misses;
    tlb_flushes = a.tlb_flushes - b.tlb_flushes;
    tlb_shootdowns = a.tlb_shootdowns - b.tlb_shootdowns;
    tlb_shootdown_pages = a.tlb_shootdown_pages - b.tlb_shootdown_pages;
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    syscalls_mmap = a.syscalls_mmap - b.syscalls_mmap;
    syscalls_mremap = a.syscalls_mremap - b.syscalls_mremap;
    syscalls_mprotect = a.syscalls_mprotect - b.syscalls_mprotect;
    syscalls_munmap = a.syscalls_munmap - b.syscalls_munmap;
    syscalls_dummy = a.syscalls_dummy - b.syscalls_dummy;
    faults = a.faults - b.faults;
    syscalls_failed = a.syscalls_failed - b.syscalls_failed;
    syscall_retries = a.syscall_retries - b.syscall_retries;
    pages_mapped = a.pages_mapped - b.pages_mapped;
    frames_allocated = a.frames_allocated - b.frames_allocated;
    alloc_ops = a.alloc_ops - b.alloc_ops;
    free_ops = a.free_ops - b.free_ops;
  }

(* One name/value pair per snapshot field, under the "vmm." namespace —
   the same names the live registry carries. *)
let field_values (s : snapshot) =
  [
    ("vmm.instructions", s.instructions);
    ("vmm.loads", s.loads);
    ("vmm.stores", s.stores);
    ("vmm.tlb_hits", s.tlb_hits);
    ("vmm.tlb_misses", s.tlb_misses);
    ("vmm.tlb_flushes", s.tlb_flushes);
    ("vmm.tlb_shootdowns", s.tlb_shootdowns);
    ("vmm.tlb_shootdown_pages", s.tlb_shootdown_pages);
    ("vmm.cache_hits", s.cache_hits);
    ("vmm.cache_misses", s.cache_misses);
    ("vmm.syscalls_mmap", s.syscalls_mmap);
    ("vmm.syscalls_mremap", s.syscalls_mremap);
    ("vmm.syscalls_mprotect", s.syscalls_mprotect);
    ("vmm.syscalls_munmap", s.syscalls_munmap);
    ("vmm.syscalls_dummy", s.syscalls_dummy);
    ("vmm.faults", s.faults);
    ("vmm.syscalls_failed", s.syscalls_failed);
    ("vmm.syscall_retries", s.syscall_retries);
    ("vmm.pages_mapped", s.pages_mapped);
    ("vmm.frames_allocated", s.frames_allocated);
    ("vmm.alloc_ops", s.alloc_ops);
    ("vmm.free_ops", s.free_ops);
  ]

let add_snapshot (t : t) (s : snapshot) =
  let add = Telemetry.Metrics.add in
  add t.instructions s.instructions;
  add t.loads s.loads;
  add t.stores s.stores;
  add t.tlb_hits s.tlb_hits;
  add t.tlb_misses s.tlb_misses;
  add t.tlb_flushes s.tlb_flushes;
  add t.tlb_shootdowns s.tlb_shootdowns;
  add t.tlb_shootdown_pages s.tlb_shootdown_pages;
  add t.cache_hits s.cache_hits;
  add t.cache_misses s.cache_misses;
  add t.syscalls_mmap s.syscalls_mmap;
  add t.syscalls_mremap s.syscalls_mremap;
  add t.syscalls_mprotect s.syscalls_mprotect;
  add t.syscalls_munmap s.syscalls_munmap;
  add t.syscalls_dummy s.syscalls_dummy;
  add t.faults s.faults;
  add t.syscalls_failed s.syscalls_failed;
  add t.syscall_retries s.syscall_retries;
  add t.pages_mapped s.pages_mapped;
  add t.frames_allocated s.frames_allocated;
  add t.alloc_ops s.alloc_ops;
  add t.free_ops s.free_ops

let snapshot_to_json s =
  Telemetry.Json.Obj
    (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) (field_values s))

let sum (a : snapshot) (b : snapshot) : snapshot =
  {
    instructions = a.instructions + b.instructions;
    loads = a.loads + b.loads;
    stores = a.stores + b.stores;
    tlb_hits = a.tlb_hits + b.tlb_hits;
    tlb_misses = a.tlb_misses + b.tlb_misses;
    tlb_flushes = a.tlb_flushes + b.tlb_flushes;
    tlb_shootdowns = a.tlb_shootdowns + b.tlb_shootdowns;
    tlb_shootdown_pages = a.tlb_shootdown_pages + b.tlb_shootdown_pages;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    syscalls_mmap = a.syscalls_mmap + b.syscalls_mmap;
    syscalls_mremap = a.syscalls_mremap + b.syscalls_mremap;
    syscalls_mprotect = a.syscalls_mprotect + b.syscalls_mprotect;
    syscalls_munmap = a.syscalls_munmap + b.syscalls_munmap;
    syscalls_dummy = a.syscalls_dummy + b.syscalls_dummy;
    faults = a.faults + b.faults;
    syscalls_failed = a.syscalls_failed + b.syscalls_failed;
    syscall_retries = a.syscall_retries + b.syscall_retries;
    pages_mapped = a.pages_mapped + b.pages_mapped;
    frames_allocated = a.frames_allocated + b.frames_allocated;
    alloc_ops = a.alloc_ops + b.alloc_ops;
    free_ops = a.free_ops + b.free_ops;
  }

let total_syscalls s =
  s.syscalls_mmap + s.syscalls_mremap + s.syscalls_mprotect + s.syscalls_munmap
  + s.syscalls_dummy

let protection_syscalls s =
  s.syscalls_mremap + s.syscalls_mprotect + s.syscalls_munmap

let heap_ops s = s.alloc_ops + s.free_ops

(* The batching win as one number: protection syscalls divided by heap
   operations.  [None] when the snapshot saw no allocator traffic, so
   exporters can distinguish "no data" from a true zero. *)
let syscalls_per_op s =
  let ops = heap_ops s in
  if ops = 0 then None
  else Some (float_of_int (protection_syscalls s) /. float_of_int ops)

let pp ppf s =
  Format.fprintf ppf
    "@[<v>instructions: %d@ loads: %d@ stores: %d@ tlb hits/misses: %d/%d@ \
     tlb shootdowns: %d (%d pages)@ cache hits/misses: %d/%d@ \
     syscalls (mmap/mremap/mprotect/munmap/dummy): %d/%d/%d/%d/%d@ faults: \
     %d@ syscalls failed/retried: %d/%d@ pages mapped: %d@ frames \
     allocated: %d@ heap ops (alloc/free): %d/%d@]"
    s.instructions s.loads s.stores s.tlb_hits s.tlb_misses s.tlb_shootdowns
    s.tlb_shootdown_pages s.cache_hits
    s.cache_misses s.syscalls_mmap
    s.syscalls_mremap s.syscalls_mprotect s.syscalls_munmap s.syscalls_dummy
    s.faults s.syscalls_failed s.syscall_retries s.pages_mapped
    s.frames_allocated s.alloc_ops s.free_ops
