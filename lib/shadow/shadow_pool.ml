open Vmm

(* The pool's shadow ranges, keyed by base page: one int per range, the
   page count shifted left once, with the low bit set once the range's
   object is freed.  0 is the vacant slot (a range spans at least one
   page). *)
type ranges = {
  by_base : int Page_map.t;
  mutable held_pages : int; (* pages over every range *)
  mutable freed_pages : int; (* pages over the freed ranges *)
}

let range_entry ~pages ~freed = (pages lsl 1) lor Bool.to_int freed
let range_pages e = e lsr 1
let range_freed e = e land 1 = 1

(* Install or overwrite the range at [base], keeping [freed_pages] the
   sum over the freed entries.  [held_pages] is the callers' to keep. *)
let set_range r base ~pages ~freed =
  let page = Addr.page_index base in
  let old = Page_map.find r.by_base page in
  if range_freed old then r.freed_pages <- r.freed_pages - range_pages old;
  if freed then r.freed_pages <- r.freed_pages + pages;
  Page_map.set r.by_base page (range_entry ~pages ~freed)

let remove_range r base =
  let page = Addr.page_index base in
  let old = Page_map.find r.by_base page in
  if range_freed old then r.freed_pages <- r.freed_pages - range_pages old;
  Page_map.remove r.by_base page

(* Fuse the ranges into maximal runs exactly as
   [Syscalls.coalesce_ranges] would (overlapping or adjacent ranges
   join) and pass each run to [f] in ascending order.  The table is
   already sorted, so this is one walk with no list built. *)
let iter_runs r f =
  let run_base = ref 0 and run_limit = ref (-1) in
  let flush () =
    if !run_limit >= 0 then
      f ~base:!run_base ~pages:((!run_limit - !run_base) / Addr.page_size)
  in
  Page_map.iter r.by_base (fun page e ->
      let base = Addr.of_page page in
      let limit = Addr.of_page (page + range_pages e) in
      if !run_limit >= 0 && base <= !run_limit then
        run_limit := max !run_limit limit
      else begin
        flush ();
        run_base := base;
        run_limit := limit
      end);
  flush ()

type t = {
  machine : Machine.t;
  registry : Object_registry.t;
  pool : Apa.Pool.t;
  heap : Shadow_heap.t;
  recycler : Apa.Page_recycler.t option;
  slab : Slab.t option;
  ranges : ranges;
  mutable elided_live : (Addr.t, int) Hashtbl.t option;
      (* addr -> size, statically-safe blocks; built on first use *)
  unmap : addr:Addr.t -> pages:int -> (unit, Fault_plan.error) result;
  mutable after_free_hook : (unit -> unit) option;
  mutable in_after_free_hook : bool;
  mutable destroyed : bool;
}

let create ?(arena_pages = 16) ?elem_size ?(reuse_shadow_va = true) ?recycler
    ?slab ?unmap ~registry machine =
  let reclaim =
    match recycler with
    | Some r -> Apa.Pool.Recycle r
    | None -> Apa.Pool.Unmap
  in
  let pool = Apa.Pool.create ~arena_pages ?elem_size ~reclaim machine in
  let ranges =
    { by_base = Page_map.create ~empty:0; held_pages = 0; freed_pages = 0 }
  in
  let shadow_placer pages =
    match recycler with
    | Some r when reuse_shadow_va -> Apa.Page_recycler.take r ~pages
    | Some _ | None -> None
  in
  let shadow_unplace ~base ~pages =
    match recycler with
    | Some r when reuse_shadow_va -> Apa.Page_recycler.put r ~base ~pages
    | Some _ | None -> ()
  in
  let on_shadow_range ~base ~pages =
    set_range ranges base ~pages ~freed:false;
    ranges.held_pages <- ranges.held_pages + pages
  in
  let shadow_alias =
    Option.map (fun s ~src ~pages -> Slab.take s ~src ~pages) slab
  in
  let heap =
    Shadow_heap.create ~shadow_placer ~shadow_unplace ~on_shadow_range
      ?shadow_alias ~registry
      ~allocator:(Apa.Pool.as_allocator pool)
      machine
  in
  let unmap =
    match unmap with
    | Some f -> f
    | None -> fun ~addr ~pages -> Syscalls.munmap machine ~addr ~pages
  in
  {
    machine;
    registry;
    pool;
    heap;
    recycler;
    slab;
    ranges;
    elided_live = None;
    unmap;
    after_free_hook = None;
    in_after_free_hook = false;
    destroyed = false;
  }

let check_usable t name =
  if t.destroyed then
    invalid_arg (Printf.sprintf "Shadow_pool.%s: pool already destroyed" name)

let set_after_free_hook t f = t.after_free_hook <- Some f

(* The hook may itself reclaim (that is its purpose), but a reclamation
   must not re-enter the hook through the frees it performs. *)
let run_after_free_hook t =
  match t.after_free_hook with
  | Some f when not t.in_after_free_hook ->
    t.in_after_free_hook <- true;
    (match f () with
     | () -> t.in_after_free_hook <- false
     | exception e ->
       t.in_after_free_hook <- false;
       raise e)
  | Some _ | None -> ()

let alloc t ?site size =
  check_usable t "alloc";
  Shadow_heap.malloc t.heap ?site size

let try_alloc t ?site size =
  check_usable t "alloc";
  Shadow_heap.try_malloc t.heap ?site size

let mark_range_freed t (o : Object_registry.obj) =
  set_range t.ranges o.Object_registry.shadow_base
    ~pages:o.Object_registry.pages ~freed:true

let try_free t ?site user =
  check_usable t "free";
  match Shadow_heap.try_free t.heap ?site user with
  | Error _ as e -> e
  | Ok obj ->
    mark_range_freed t obj;
    run_after_free_hook t;
    Ok ()

(* A failed protect is reported as [Shadow_heap.free], the primitive
   underneath. *)
let free t ?site user =
  Syscalls.ok_or_raise ~name:"Shadow_heap.free" (try_free t ?site user)

let free_unprotected t ?site user =
  check_usable t "free";
  let obj = Shadow_heap.free_unprotected t.heap ?site user in
  mark_range_freed t obj;
  run_after_free_hook t;
  obj

(* Epoch-mode free: validate + mark now, defer protection and canonical
   reuse.  The range is NOT marked freed yet — [reclaim_freed_shadow]
   must not recycle a quarantined range out from under its epoch. *)
let free_deferred t ?site user =
  check_usable t "free";
  Shadow_heap.free_deferred t.heap ?site user

(* The release half an epoch runs at retirement, once the range is
   protected: canonical block back to the pool, range into the freed
   set the reuse policy may reclaim. *)
let retire_object t (obj : Object_registry.obj) =
  Shadow_heap.release_canonical t.heap obj;
  mark_range_freed t obj;
  (* Epoch retirement is this object's real free completion, so the
     reclamation hook fires here too — a long-lived pool under an epoch
     scheme would otherwise never trigger its reuse policy. *)
  run_after_free_hook t

(* Raw pool access for fully degraded (pass-through) operation: the
   canonical block with no shadow alias at all. *)
let alloc_raw t size =
  check_usable t "alloc";
  let addr = Apa.Pool.alloc t.pool size in
  Stats.count_alloc_op t.machine.Machine.stats;
  addr

let dealloc_raw t addr =
  check_usable t "free";
  Apa.Pool.dealloc t.pool addr;
  Stats.count_free_op t.machine.Machine.stats

(* Statically-elided allocation: the analysis proved every use of this
   site's class Safe, so the object lives on its canonical page with no
   shadow alias — no mremap on alloc, no mprotect on free.  The block is
   remembered so [free_elided] can tell these objects apart from
   protected ones and so a double free of one still trips the shadow
   path (the second free falls through and the registry rejects it). *)
let alloc_elided t size =
  check_usable t "alloc";
  let addr = Apa.Pool.alloc t.pool size in
  let live =
    match t.elided_live with
    | Some live -> live
    | None ->
      let live = Hashtbl.create 64 in
      t.elided_live <- Some live;
      live
  in
  Hashtbl.replace live addr size;
  Stats.count_alloc_op t.machine.Machine.stats;
  addr

let free_elided t addr =
  check_usable t "free";
  match t.elided_live with
  | Some live when Hashtbl.mem live addr ->
    Hashtbl.remove live addr;
    Apa.Pool.dealloc t.pool addr;
    Stats.count_free_op t.machine.Machine.stats;
    true
  | Some _ | None -> false


let size_of t user = Shadow_heap.size_of t.heap user

let destroy t =
  check_usable t "destroy";
  t.destroyed <- true;
  (* Flush before the pool recycles canonical VA: recycled pages get
     fresh physical backing, which would invalidate cached aliases. *)
  (match t.slab with Some s -> ignore (Slab.flush s) | None -> ());
  (* Batched teardown, same shape as [reclaim_ranges]: fuse every
     shadow range and pay one recycler insertion or one [unmap] per
     merged run instead of one syscall per object range.  Destruction
     is terminal, so an unmap failure only leaks the run's pages (kept
     mapped, never reused — the registry entries are dropped either
     way). *)
  let release =
    match t.recycler with
    | Some r -> fun ~base ~pages -> Apa.Page_recycler.put r ~base ~pages
    | None -> fun ~base ~pages -> ignore (t.unmap ~addr:base ~pages)
  in
  iter_runs t.ranges release;
  Page_map.iter t.ranges.by_base (fun page e ->
      Object_registry.forget_range t.registry ~base:(Addr.of_page page)
        ~pages:(range_pages e));
  Page_map.reset t.ranges.by_base;
  t.ranges.held_pages <- 0;
  t.ranges.freed_pages <- 0;
  t.elided_live <- None;
  Apa.Pool.destroy t.pool

let freed_ranges t =
  Page_map.fold_right t.ranges.by_base
    (fun page e acc ->
      if range_freed e then (Addr.of_page page, range_pages e) :: acc else acc)
    []

(* Release a chosen subset of the freed ranges, batching the release
   syscalls: the ranges are fused with [Syscalls.coalesce_ranges] first,
   so adjacent objects freed over time cost one [munmap] (or one merged
   recycler run), mirroring what PR 7's epoch did for [mprotect].  A
   merged run whose unmap fails is kept whole — its member ranges stay
   protected and reclaimable later — rather than half-released. *)
let reclaim_ranges t ranges =
  check_usable t "reclaim_ranges";
  (* Only ranges currently in the freed set are eligible; anything else
     (live, quarantined, already reclaimed) is skipped, so callers may
     pass stale lists safely. *)
  let eligible =
    List.filter
      (fun (base, pages) ->
        let e = Page_map.find t.ranges.by_base (Addr.page_index base) in
        range_freed e && range_pages e = pages)
      ranges
  in
  let merged = Syscalls.coalesce_ranges eligible in
  let released_runs =
    match t.recycler with
    | Some r ->
      (* Recycling is pure bookkeeping — no syscall can fail — and the
         free list receives the merged runs, not the per-object ones. *)
      List.iter
        (fun (base, pages) -> Apa.Page_recycler.put r ~base ~pages)
        merged;
      merged
    | None ->
      List.filter
        (fun (base, pages) ->
          match t.unmap ~addr:base ~pages with
          | Ok () -> true
          | Error _ -> false)
        merged
  in
  let run_released (base, pages) =
    let limit = base + Addr.of_page pages in
    List.exists
      (fun (rb, rp) -> base >= rb && limit <= rb + Addr.of_page rp)
      released_runs
  in
  List.fold_left
    (fun acc (base, pages) ->
      if run_released (base, pages) then begin
        Object_registry.forget_range t.registry ~base ~pages;
        remove_range t.ranges base;
        t.ranges.held_pages <- t.ranges.held_pages - pages;
        acc + pages
      end
      else acc)
    0 eligible

let reclaim_freed_shadow t =
  check_usable t "reclaim_freed_shadow";
  reclaim_ranges t (freed_ranges t)

let machine t = t.machine
let registry t = t.registry
let is_destroyed t = t.destroyed
let live_blocks t = Apa.Pool.live_blocks t.pool

let shadow_pages_live t = t.ranges.held_pages
let freed_shadow_pages t = t.ranges.freed_pages
