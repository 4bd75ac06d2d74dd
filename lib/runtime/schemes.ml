open Vmm

let raw_load machine addr ~width = Mmu.load machine addr ~width
let raw_store machine addr ~width v = Mmu.store machine addr ~width v
let compute_direct machine n = Stats.count_instructions machine.Machine.stats n

(* The enabled check lives at the call site so the disabled path never
   allocates the event thunk (closures capture site/size/addr). *)
let trace_malloc machine site size addr =
  if Telemetry.Sink.enabled machine.Machine.trace then
    Telemetry.Sink.emit machine.Machine.trace (fun () ->
        Telemetry.Event.Malloc { site; size; addr })

let trace_free machine site addr =
  if Telemetry.Sink.enabled machine.Machine.trace then
    Telemetry.Sink.emit machine.Machine.trace (fun () ->
        Telemetry.Event.Free { site; addr })

type pa_config = { dummy_syscalls : bool }

let default_pa_config = { dummy_syscalls = false }

type spatial_config = { bounds_check_cost : int }

let default_spatial_config = { bounds_check_cost = 6 }

type epoch_config = {
  max_frees : int;
  max_pages : int;
  slab_copies : int;
  backstop_check_cost : int;
}

let default_epoch_config =
  { max_frees = 64; max_pages = 256; slab_copies = 16; backstop_check_cost = 2 }

type pool_config =
  | Eager of { reuse_shadow_va : bool }
  | Elided of { elide : string -> bool }
  | Scoped
  | Epoch of epoch_config

let default_pool_config = Eager { reuse_shadow_va = true }

type tagged_config = { tag_bits : int; tag_check_cost : int }

let default_tagged_config = { tag_bits = 8; tag_check_cost = 4 }

type elision_stats = {
  elided_allocs : int;
  elided_frees : int;
  protected_allocs : int;
  protected_frees : int;
}

type recovery_stats = {
  recovered_loads : int;
  recovered_stores : int;
  recovered_frees : int;
  pages_unprotected : int;
}

type epoch_stats = {
  epochs_retired : int;
  epoch_retired_frees : int;
  epoch_pending_frees : int;
  coalesced_protects : int;
  epoch_split_retries : int;
  epoch_failed_protects : int;
  backstop_hits : int;
  slab_calls : int;
  slab_hits : int;
  slab_misses : int;
}

type inferred_stats = {
  inferred_pools_created : int;
  inferred_pools_destroyed : int;
  live_shadow_pages : int;
  peak_shadow_pages : int;
  destroy_unmapped_pages : int;
}

type pool_stats =
  | Eager_stats
  | Elided_stats of elision_stats
  | Scoped_stats of inferred_stats
  | Epoch_stats of epoch_stats

type info =
  | Opaque
  | Shadow_pool of {
      global : Shadow.Shadow_pool.t;
      recycler : Apa.Page_recycler.t option;
      stats : unit -> pool_stats;
      drain : unit -> unit;
    }
  | Recoverable of {
      base : Scheme.t;
      recovery : unit -> recovery_stats;
    }
  | Tagged of {
      table : Tagging.Tag_table.t;
      recycler : Apa.Page_recycler.t;
    }

(* The private carrier on the scheme record; [introspect] is the only
   reader, so the constructor never leaks. *)
type Scheme.introspection += Info of info

let introspect (scheme : Scheme.t) =
  match scheme.Scheme.introspection with
  | Info i -> i
  | _ -> Opaque

let native machine =
  let malloc_heap = Heap.Freelist_malloc.create machine in
  let rec scheme =
    lazy
      {
        Scheme.name = "native";
        machine;
        malloc =
          (fun ?(site = "<unknown>") size ->
            let a = Heap.Freelist_malloc.alloc malloc_heap size in
            Stats.count_alloc_op machine.Machine.stats;
            trace_malloc machine site size a;
            a);
        free =
          (fun ?(site = "<unknown>") a ->
            Heap.Freelist_malloc.dealloc malloc_heap a;
            Stats.count_free_op machine.Machine.stats;
            trace_free machine site a);
        load = raw_load machine;
        store = raw_store machine;
        pool_create =
          (fun ?elem_size:_ () -> Scheme.direct_pool (Lazy.force scheme));
        compute = compute_direct machine;
        extra_memory_bytes = (fun () -> 0);
        guarantees_detection = false;
        introspection = Scheme.No_introspection;
      }
  in
  Lazy.force scheme

let pool_syscall_pair machine dummy =
  if dummy then begin
    Kernel.dummy_syscall machine
  end

let pa ?(config = default_pa_config) machine =
  let { dummy_syscalls } = config in
  let recycler = Apa.Page_recycler.create () in
  let make_pool ?elem_size () =
    Apa.Pool.create ?elem_size ~reclaim:(Apa.Pool.Recycle recycler) machine
  in
  let global = make_pool () in
  let wrap_pool pool =
    {
      Scheme.pool_alloc =
        (fun ?(site = "<unknown>") size ->
          pool_syscall_pair machine dummy_syscalls;
          let a = Apa.Pool.alloc pool size in
          Stats.count_alloc_op machine.Machine.stats;
          trace_malloc machine site size a;
          a);
      pool_free =
        (fun ?(site = "<unknown>") a ->
          pool_syscall_pair machine dummy_syscalls;
          Apa.Pool.dealloc pool a;
          Stats.count_free_op machine.Machine.stats;
          trace_free machine site a);
      pool_destroy = (fun () -> Apa.Pool.destroy pool);
    }
  in
  let global_handle = wrap_pool global in
  {
    Scheme.name = (if dummy_syscalls then "pa+dummy-syscalls" else "pa");
    machine;
    malloc = (fun ?site size -> global_handle.Scheme.pool_alloc ?site size);
    free = (fun ?site a -> global_handle.Scheme.pool_free ?site a);
    load = raw_load machine;
    store = raw_store machine;
    pool_create = (fun ?elem_size () -> wrap_pool (make_pool ?elem_size ()));
    compute = compute_direct machine;
    extra_memory_bytes = (fun () -> 0);
    guarantees_detection = false;
    introspection = Scheme.No_introspection;
  }

(* The batched reclaim-path unmap every shadow pool gets: coalesced by
   [Shadow_pool.reclaim_ranges], retried here — the same injection shape
   as the epoch's [protect]. *)
let retrying_unmap machine ~addr ~pages =
  Retry.attempt machine (fun () -> Syscalls.munmap machine ~addr ~pages)

let trace_violation machine (r : Shadow.Report.t) =
  Telemetry.Sink.emit_always machine.Machine.trace (fun () ->
      Shadow.Report.to_event r)

let guarded_load machine registry addr ~width =
  match Shadow.Detector.load registry ~in_free:false machine addr ~width with
  | v -> v
  | exception (Shadow.Report.Violation r as exn) ->
    trace_violation machine r;
    raise exn

let guarded_store machine registry addr ~width v =
  match Shadow.Detector.store registry machine addr ~width v with
  | () -> ()
  | exception (Shadow.Report.Violation r as exn) ->
    trace_violation machine r;
    raise exn

let shadow_basic machine =
  let registry = Shadow.Object_registry.create () in
  let malloc_heap = Heap.Freelist_malloc.create machine in
  let heap =
    Shadow.Shadow_heap.create ~registry
      ~allocator:(Heap.Freelist_malloc.as_allocator malloc_heap)
      machine
  in
  let rec scheme =
    lazy
      {
        Scheme.name = "shadow-basic";
        machine;
        malloc = (fun ?site size -> Shadow.Shadow_heap.malloc heap ?site size);
        free = (fun ?site a -> Shadow.Shadow_heap.free heap ?site a);
        load = guarded_load machine registry;
        store = guarded_store machine registry;
        pool_create =
          (fun ?elem_size:_ () -> Scheme.direct_pool (Lazy.force scheme));
        compute = compute_direct machine;
        extra_memory_bytes = (fun () -> 0);
        guarantees_detection = true;
        introspection = Scheme.No_introspection;
      }
  in
  Lazy.force scheme

(* What one [pool_config] mode contributes to [shadow_pool]: the scheme
   name, how a pool is made and wrapped (the global pool and every
   [pool_create] alike), the access path and what [introspect] reports.
   The mode is chosen once, at build time, so no per-access closure
   tests it. *)
type mode = {
  m_name : string;
  m_new_pool :
    ?elem_size:int -> unit -> Shadow.Shadow_pool.t * Scheme.pool_handle;
  m_load : Addr.t -> width:int -> int;
  m_store : Addr.t -> width:int -> int -> unit;
  m_stats : unit -> pool_stats;
  m_drain : unit -> unit;
}

let eager_handle pool =
  {
    Scheme.pool_alloc =
      (fun ?site size -> Shadow.Shadow_pool.alloc pool ?site size);
    pool_free = (fun ?site a -> Shadow.Shadow_pool.free pool ?site a);
    pool_destroy = (fun () -> Shadow.Shadow_pool.destroy pool);
  }

let shadow_pool_with_registry ?(config = default_pool_config) machine =
  let registry = Shadow.Object_registry.create () in
  (* [Scoped] has no recycler on purpose: recycling keeps ranges mapped
     for reuse, which hides exactly what that mode exists to show —
     that inferred scoped pools bound peak shadow VA (destroy issues
     real coalesced munmaps). *)
  let recycler =
    match config with
    | Scoped -> None
    | Eager _ | Elided _ | Epoch _ -> Some (Apa.Page_recycler.create ())
  in
  let create ?elem_size ?reuse_shadow_va ?slab () =
    Shadow.Shadow_pool.create ?elem_size ?reuse_shadow_va ?recycler ?slab
      ~unmap:(retrying_unmap machine) ~registry machine
  in
  let load = guarded_load machine registry in
  let store = guarded_store machine registry in
  let eager ~reuse_shadow_va =
    {
      m_name = "shadow-pool";
      m_new_pool =
        (fun ?elem_size () ->
          let pool = create ?elem_size ~reuse_shadow_va () in
          (pool, eager_handle pool));
      m_load = load;
      m_store = store;
      m_stats = (fun () -> Eager_stats);
      m_drain = ignore;
    }
  in
  let mode =
    match config with
    | Eager { reuse_shadow_va } -> eager ~reuse_shadow_va
    | Elided { elide } ->
      (* Sites whose every use is provably Safe take the canonical
         allocation path (no shadow alias, no mremap/mprotect); every
         other site — including position-less ones the policy cannot
         vouch for — keeps the full scheme, so detection at May/Must
         sites is unchanged. *)
      let elided_allocs = ref 0 and elided_frees = ref 0 in
      let protected_allocs = ref 0 and protected_frees = ref 0 in
      let new_pool ?elem_size () =
        let pool = create ?elem_size () in
        ( pool,
          {
            (eager_handle pool) with
            Scheme.pool_alloc =
              (fun ?(site = "<unknown>") size ->
                if elide site then begin
                  let a = Shadow.Shadow_pool.alloc_elided pool size in
                  incr elided_allocs;
                  trace_malloc machine site size a;
                  a
                end
                else begin
                  incr protected_allocs;
                  Shadow.Shadow_pool.alloc pool ~site size
                end);
            pool_free =
              (fun ?site a ->
                if Shadow.Shadow_pool.free_elided pool a then begin
                  incr elided_frees;
                  trace_free machine (Option.value site ~default:"<unknown>") a
                end
                else begin
                  incr protected_frees;
                  Shadow.Shadow_pool.free pool ?site a
                end);
          } )
      in
      {
        (eager ~reuse_shadow_va:true) with
        m_name = "shadow-pool+static";
        m_new_pool = new_pool;
        m_stats =
          (fun () ->
            Elided_stats
              {
                elided_allocs = !elided_allocs;
                elided_frees = !elided_frees;
                protected_allocs = !protected_allocs;
                protected_frees = !protected_frees;
              });
      }
    | Scoped ->
      (* Each [pool_create] is one inferred pool ([Minic.Poolify]) whose
         destroy releases its whole VA footprint.  Only pools not yet
         destroyed are summed, and each keeps a running page total, so
         sampling the peak after every allocation costs one add per
         live pool. *)
      let pools = ref [] in
      let created = ref (-1) (* the global pool is not an inferred one *) in
      let destroyed = ref 0 and unmapped = ref 0 and peak = ref 0 in
      let live () =
        List.fold_left
          (fun acc p -> acc + Shadow.Shadow_pool.shadow_pages_live p)
          0 !pools
      in
      let new_pool ?elem_size () =
        incr created;
        let pool = create ?elem_size () in
        pools := pool :: !pools;
        ( pool,
          {
            (eager_handle pool) with
            Scheme.pool_alloc =
              (fun ?site size ->
                let a = Shadow.Shadow_pool.alloc pool ?site size in
                peak := Int.max !peak (live ());
                a);
            pool_destroy =
              (fun () ->
                if not (Shadow.Shadow_pool.is_destroyed pool) then begin
                  unmapped :=
                    !unmapped + Shadow.Shadow_pool.shadow_pages_live pool;
                  incr destroyed;
                  pools := List.filter (fun p -> p != pool) !pools;
                  Shadow.Shadow_pool.destroy pool
                end);
          } )
      in
      {
        (eager ~reuse_shadow_va:true) with
        m_name = "shadow-pool+inferred";
        m_new_pool = new_pool;
        m_stats =
          (fun () ->
            Scoped_stats
              {
                inferred_pools_created = !created;
                inferred_pools_destroyed = !destroyed;
                live_shadow_pages = live ();
                peak_shadow_pages = !peak;
                destroy_unmapped_pages = !unmapped;
              });
      }
    | Epoch { max_frees; max_pages; slab_copies; backstop_check_cost } ->
      (* Frees are quarantined per pool and retired with coalesced
         mprotects; shadow aliases come from slab pre-aliasing.  Inside
         the quarantine window a software backstop (the epoch's
         quarantine table, consulted before every access) carries
         detection; after retirement the MMU path is [Eager]'s.  The
         batched protect goes through [Retry], and a run that still
         fails is split per object by the epoch — protection is never
         silently dropped. *)
      let backstop_hits = ref 0 in
      let units : (Shadow.Epoch.t * Shadow.Slab.t) list ref = ref [] in
      let protect ~addr ~pages =
        Retry.attempt machine (fun () ->
            Syscalls.mprotect machine ~addr ~pages Perm.No_access)
      in
      let new_pool ?elem_size () =
        let slab = Shadow.Slab.create ~copies:slab_copies machine in
        let epoch = Shadow.Epoch.create ~max_frees ~max_pages ~protect () in
        units := (epoch, slab) :: !units;
        (* Slab placement supplies the shadow VA, so recycled-VA reuse
           for shadow ranges is off; canonical pages still recycle. *)
        let pool = create ?elem_size ~reuse_shadow_va:false ~slab () in
        ( pool,
          {
            Scheme.pool_alloc =
              (fun ?site size ->
                Syscalls.ok_or_raise ~name:"Schemes.shadow_pool.alloc"
                  (Retry.attempt machine (fun () ->
                       Shadow.Shadow_pool.try_alloc pool ?site size)));
            pool_free =
              (fun ?site a ->
                let obj = Shadow.Shadow_pool.free_deferred pool ?site a in
                Shadow.Epoch.enqueue epoch obj ~release:(fun () ->
                    Shadow.Shadow_pool.retire_object pool obj);
                if Shadow.Epoch.should_retire epoch then
                  Shadow.Epoch.retire epoch);
            pool_destroy =
              (fun () ->
                (* Retire, never abandon: recycling is VA bookkeeping
                   only, so an abandoned quarantine would leave
                   in-window freed pages read-write after the backstop
                   stops watching them. *)
                Shadow.Epoch.retire epoch;
                Shadow.Shadow_pool.destroy pool);
          } )
      in
      (* While any epoch holds pending frees, an access to a quarantined
         page is a use-after-free the MMU cannot see (the page is still
         read-write), so it is raised in software with the diagnostics
         the trap handler would build. *)
      let backstop access addr =
        List.iter
          (fun ((epoch : Shadow.Epoch.t), _) ->
            if Shadow.Epoch.pending_frees epoch > 0 then begin
              Stats.count_instructions machine.Machine.stats
                backstop_check_cost;
              match Shadow.Epoch.quarantined_obj epoch addr with
              | Some obj ->
                incr backstop_hits;
                let r =
                  Shadow.Detector.report obj
                    (Shadow.Report.Use_after_free access) addr
                in
                trace_violation machine r;
                raise (Shadow.Report.Violation r)
              | None -> ()
            end)
          !units
      in
      let sum f = List.fold_left (fun acc (e, s) -> acc + f e s) 0 !units in
      let stats () =
        Epoch_stats
          {
            epochs_retired = sum (fun e _ -> Shadow.Epoch.retirements e);
            epoch_retired_frees = sum (fun e _ -> Shadow.Epoch.retired_frees e);
            epoch_pending_frees = sum (fun e _ -> Shadow.Epoch.pending_frees e);
            coalesced_protects = sum (fun e _ -> Shadow.Epoch.protect_calls e);
            epoch_split_retries = sum (fun e _ -> Shadow.Epoch.split_retries e);
            epoch_failed_protects =
              sum (fun e _ -> Shadow.Epoch.failed_protects e);
            backstop_hits = !backstop_hits;
            slab_calls = sum (fun _ s -> Shadow.Slab.slab_calls s);
            slab_hits = sum (fun _ s -> Shadow.Slab.hits s);
            slab_misses = sum (fun _ s -> Shadow.Slab.misses s);
          }
      in
      {
        m_name = "shadow-pool+epoch";
        m_new_pool = new_pool;
        m_load =
          (fun addr ~width ->
            backstop Perm.Read addr;
            load addr ~width);
        m_store =
          (fun addr ~width v ->
            backstop Perm.Write addr;
            store addr ~width v);
        m_stats = stats;
        m_drain =
          (fun () -> List.iter (fun (e, _) -> Shadow.Epoch.retire e) !units);
      }
  in
  let global, global_handle = mode.m_new_pool () in
  ( {
      Scheme.name = mode.m_name;
      machine;
      malloc = (fun ?site size -> global_handle.Scheme.pool_alloc ?site size);
      free = (fun ?site a -> global_handle.Scheme.pool_free ?site a);
      load = mode.m_load;
      store = mode.m_store;
      pool_create = (fun ?elem_size () -> snd (mode.m_new_pool ?elem_size ()));
      compute = compute_direct machine;
      extra_memory_bytes = (fun () -> 0);
      guarantees_detection = true;
      introspection =
        Info
          (Shadow_pool
             { global; recycler; stats = mode.m_stats; drain = mode.m_drain });
    },
    registry )

let shadow_pool ?config machine = fst (shadow_pool_with_registry ?config machine)

(* Shadow-pool plus per-access software bounds checks: a spatial error
   that stays within the object's shadow page is invisible to the MMU
   (the alias covers the whole physical frame), so the combined checker
   validates the offset against the object registry before letting the
   access through — the paper's future-work "comprehensive safety
   checking tool" built from its two complementary halves. *)
let shadow_pool_spatial ?(config = default_spatial_config) machine =
  let { bounds_check_cost } = config in
  let base, registry = shadow_pool_with_registry machine in
  let bounds_violation access addr obj =
    raise
      (Shadow.Report.Violation
         (Shadow.Detector.report obj (Shadow.Report.Out_of_bounds access)
            addr))
  in
  let check access addr width =
    Stats.count_instructions machine.Machine.stats bounds_check_cost;
    match Shadow.Object_registry.find_by_addr registry addr with
    | Some obj ->
      let start = obj.Shadow.Object_registry.user_addr in
      if addr < start || addr + width > start + obj.Shadow.Object_registry.size
      then bounds_violation access addr obj
    | None -> ()
  in
  {
    base with
    Scheme.name = "shadow-pool+bounds";
    load =
      (fun addr ~width ->
        check Perm.Read addr width;
        base.Scheme.load addr ~width);
    store =
      (fun addr ~width v ->
        check Perm.Write addr width;
        base.Scheme.store addr ~width v);
  }

(* The paper's "log in production" variant: a violation is reported to
   the caller's sink instead of tearing the worker down.  Recovery
   mirrors what a SEGV handler can actually do — lift the protection on
   the faulting page and restart the instruction — so a recovered read
   returns the (stale) bytes still sitting on the shared physical page.
   Violations raised by software checks (spatial bounds, free-path
   registry checks) have nothing to unprotect: the access or free is
   simply dropped, with loads yielding 0. *)
let recoverable ?(on_report = fun (_ : Shadow.Report.t) -> ())
    (base : Scheme.t) =
  let machine = base.Scheme.machine in
  let recovered_loads = ref 0 in
  let recovered_stores = ref 0 in
  let recovered_frees = ref 0 in
  let pages_unprotected = ref 0 in
  (* True when a retry of the faulting access can now succeed. *)
  let unprotect_fault fault_addr =
    match Kernel.page_perm machine fault_addr with
    | Some Perm.No_access ->
      Kernel.mprotect machine ~addr:(Addr.page_base fault_addr) ~pages:1
        Perm.Read_write;
      incr pages_unprotected;
      true
    | Some _ -> true (* software check fired; page was never protected *)
    | None -> false (* wild access: nothing is mapped there *)
  in
  let load addr ~width =
    try base.Scheme.load addr ~width
    with Shadow.Report.Violation r ->
      on_report r;
      incr recovered_loads;
      if unprotect_fault r.Shadow.Report.fault_addr then
        (* A software re-raise (e.g. the spatial bounds check) fires
           again on retry; it was already reported, so drop it. *)
        try base.Scheme.load addr ~width
        with Shadow.Report.Violation _ -> 0
      else 0
  in
  let store addr ~width v =
    try base.Scheme.store addr ~width v
    with Shadow.Report.Violation r ->
      on_report r;
      incr recovered_stores;
      if unprotect_fault r.Shadow.Report.fault_addr then (
        try base.Scheme.store addr ~width v
        with Shadow.Report.Violation _ -> ())
  in
  (* A trapping free (double or invalid) leaves the heap untouched, so
     recovery is simply to skip it. *)
  let wrap_free free ?site a =
    try free ?site a
    with Shadow.Report.Violation r ->
      on_report r;
      incr recovered_frees
  in
  let wrap_handle (h : Scheme.pool_handle) =
    { h with Scheme.pool_free = wrap_free h.Scheme.pool_free }
  in
  let recovery () =
    {
      recovered_loads = !recovered_loads;
      recovered_stores = !recovered_stores;
      recovered_frees = !recovered_frees;
      pages_unprotected = !pages_unprotected;
    }
  in
  {
    base with
    Scheme.name = base.Scheme.name ^ "+recover";
    load;
    store;
    free = wrap_free base.Scheme.free;
    pool_create =
      (fun ?elem_size () -> wrap_handle (base.Scheme.pool_create ?elem_size ()));
    introspection = Info (Recoverable { base; recovery });
  }

(* The pointer-tagging backend (xTag/LightDE): a generation tag in the
   pointer's high bits, checked in software against a per-granule
   generation table on every access.  No shadow aliasing and no
   protection syscalls — memory and VA recycle immediately — at the
   price of a few instructions per access and a bounded wraparound
   window, every pass through which the table counts for attribution.
   Allocator bookkeeping (headers, free-list links) goes through the
   MMU directly and is never tag-checked, exactly as the shadow schemes
   exempt it from guarded access. *)
let tagged ?(config = default_tagged_config) machine =
  let { tag_bits; tag_check_cost } = config in
  let table = Tagging.Tag_table.create ~tag_bits ~check_cost:tag_check_cost machine in
  let recycler = Apa.Page_recycler.create () in
  let make_pool ?elem_size () =
    Apa.Pool.create ?elem_size ~reclaim:(Apa.Pool.Recycle recycler) machine
  in
  (* An address the table never saw is wild; the raw MMU access decides
     (and a trap is classified just as [Shadow.Detector] would). *)
  let wild_wrap thunk =
    try thunk ()
    with Fault.Trap fault ->
      let r =
        {
          Shadow.Report.kind = Shadow.Report.Wild_access (Fault.access fault);
          fault_addr = Fault.addr fault;
          object_info = None;
        }
      in
      trace_violation machine r;
      raise (Shadow.Report.Violation r)
  in
  let checked access addr k =
    match Tagging.Tag_table.check_access table addr ~access with
    | Some raw -> wild_wrap (fun () -> k raw)
    | None -> wild_wrap (fun () -> k (Tagging.Tag_table.untag addr))
    | exception (Shadow.Report.Violation r as exn) ->
      trace_violation machine r;
      raise exn
  in
  let wrap_pool pool =
    (* untagged base -> (tagged pointer, size): the pool's live set, so
       destroy can retire every chunk the program never freed. *)
    let live = Hashtbl.create 64 in
    {
      Scheme.pool_alloc =
        (fun ?(site = "<unknown>") size ->
          let base = Apa.Pool.alloc pool size in
          let tp = Tagging.Tag_table.register table ~base ~size ~site in
          Hashtbl.replace live base tp;
          Stats.count_alloc_op machine.Machine.stats;
          trace_malloc machine site size tp;
          tp);
      pool_free =
        (fun ?(site = "<unknown>") a ->
          match Tagging.Tag_table.free table a ~site with
          | base ->
            Hashtbl.remove live base;
            Apa.Pool.dealloc pool base;
            Stats.count_free_op machine.Machine.stats;
            trace_free machine site base
          | exception (Shadow.Report.Violation r as exn) ->
            trace_violation machine r;
            raise exn);
      pool_destroy =
        (fun () ->
          Hashtbl.iter
            (fun _ tp ->
              ignore
                (Tagging.Tag_table.free table tp ~site:"<pool-destroy>"))
            live;
          Hashtbl.reset live;
          Apa.Pool.destroy pool);
    }
  in
  let global_handle = wrap_pool (make_pool ()) in
  {
    Scheme.name = "tagged";
    machine;
    malloc = (fun ?site size -> global_handle.Scheme.pool_alloc ?site size);
    free = (fun ?site a -> global_handle.Scheme.pool_free ?site a);
    load = (fun addr ~width -> checked Perm.Read addr (Mmu.load machine ~width));
    store =
      (fun addr ~width v ->
        checked Perm.Write addr (fun raw -> Mmu.store machine raw ~width v));
    pool_create = (fun ?elem_size () -> wrap_pool (make_pool ?elem_size ()));
    compute = compute_direct machine;
    extra_memory_bytes =
      (fun () -> (Tagging.Tag_table.stats table).Tagging.Tag_table.table_bytes);
    guarantees_detection = true;
    introspection = Info (Tagged { table; recycler });
  }
