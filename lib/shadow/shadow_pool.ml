open Vmm

type range_state =
  | Rs_live
  | Rs_freed

type t = {
  machine : Machine.t;
  registry : Object_registry.t;
  pool : Apa.Pool.t;
  heap : Shadow_heap.t;
  recycler : Apa.Page_recycler.t option;
  slab : Slab.t option;
  shadow_ranges : (Addr.t, int * range_state) Hashtbl.t; (* base -> pages, state *)
  shadow_pages : int ref; (* total pages over [shadow_ranges] *)
  elided_live : (Addr.t, int) Hashtbl.t; (* addr -> size, statically-safe blocks *)
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
  let shadow_ranges = Hashtbl.create 64 in
  let shadow_pages = ref 0 in
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
    Hashtbl.replace shadow_ranges base (pages, Rs_live);
    shadow_pages := !shadow_pages + pages
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
    shadow_ranges;
    shadow_pages;
    elided_live = Hashtbl.create 64;
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
    Fun.protect ~finally:(fun () -> t.in_after_free_hook <- false) f
  | Some _ | None -> ()

let alloc t ?site size =
  check_usable t "alloc";
  Shadow_heap.malloc t.heap ?site size

let try_alloc t ?site size =
  check_usable t "alloc";
  Shadow_heap.try_malloc t.heap ?site size

let mark_range_freed t (o : Object_registry.obj) =
  Hashtbl.replace t.shadow_ranges o.Object_registry.shadow_base
    (o.Object_registry.pages, Rs_freed)

let free t ?site user =
  check_usable t "free";
  (* Look the object up first so we can flip its range state after the
     underlying free protects it. *)
  let obj = Object_registry.find_by_addr t.registry user in
  Shadow_heap.free t.heap ?site user;
  (match obj with Some o -> mark_range_freed t o | None -> ());
  run_after_free_hook t

let try_free t ?site user =
  check_usable t "free";
  let obj = Object_registry.find_by_addr t.registry user in
  match Shadow_heap.try_free t.heap ?site user with
  | Error _ as e -> e
  | Ok () ->
    (match obj with Some o -> mark_range_freed t o | None -> ());
    run_after_free_hook t;
    Ok ()

let free_unprotected t ?site user =
  check_usable t "free";
  let obj = Shadow_heap.free_unprotected t.heap ?site user in
  mark_range_freed t obj;
  run_after_free_hook t;
  obj

(* Epoch-mode free: validate + mark now, defer protection and canonical
   reuse.  The range is NOT marked Rs_freed yet — [reclaim_freed_shadow]
   must not recycle a quarantined range out from under its epoch. *)
let free_deferred t ?site user =
  check_usable t "free";
  Shadow_heap.free_deferred t.heap ?site user

(* The release half an epoch runs at retirement, once the range is
   protected: canonical block back to the pool, range into the Rs_freed
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
  Hashtbl.replace t.elided_live addr size;
  Stats.count_alloc_op t.machine.Machine.stats;
  addr

let free_elided t addr =
  check_usable t "free";
  match Hashtbl.find_opt t.elided_live addr with
  | Some _ ->
    Hashtbl.remove t.elided_live addr;
    Apa.Pool.dealloc t.pool addr;
    Stats.count_free_op t.machine.Machine.stats;
    true
  | None -> false


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
  let ranges =
    Hashtbl.fold
      (fun base (pages, _state) acc -> (base, pages) :: acc)
      t.shadow_ranges []
    |> List.sort compare
  in
  (match t.recycler with
   | Some r ->
     List.iter
       (fun (base, pages) -> Apa.Page_recycler.put r ~base ~pages)
       (Syscalls.coalesce_ranges ranges)
   | None ->
     List.iter
       (fun (base, pages) -> ignore (t.unmap ~addr:base ~pages))
       (Syscalls.coalesce_ranges ranges));
  List.iter
    (fun (base, pages) -> Object_registry.forget_range t.registry ~base ~pages)
    ranges;
  Hashtbl.reset t.shadow_ranges;
  t.shadow_pages := 0;
  Hashtbl.reset t.elided_live;
  Apa.Pool.destroy t.pool

let freed_ranges t =
  Hashtbl.fold
    (fun base (pages, state) acc ->
      match state with
      | Rs_freed -> (base, pages) :: acc
      | Rs_live -> acc)
    t.shadow_ranges []
  |> List.sort compare

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
        match Hashtbl.find_opt t.shadow_ranges base with
        | Some (p, Rs_freed) -> p = pages
        | Some (_, Rs_live) | None -> false)
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
        Hashtbl.remove t.shadow_ranges base;
        t.shadow_pages := !(t.shadow_pages) - pages;
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

let shadow_pages_live t = !(t.shadow_pages)

let freed_shadow_pages t =
  Hashtbl.fold
    (fun _ (pages, state) acc ->
      match state with
      | Rs_freed -> acc + pages
      | Rs_live -> acc)
    t.shadow_ranges 0
