open Vmm

type t = {
  scheme : Scheme.t;
  governor : Governor.t;
  registry : Shadow.Object_registry.t;
  unprotected_allocs : int ref;
  (* Every address that ever lived without page protection — raw
     (sampled-out / fallback) allocations by their block address,
     unprotected frees by the object's user address.  Never cleared:
     this is the attribution record for detection misses.  Tagged
     fallback allocations are NOT recorded here: the tag table still
     guards them. *)
  ever_unprotected : (Addr.t, unit) Hashtbl.t;
  (* The tag table when this is a backend ladder; None for the classic
     sample-rate ladders. *)
  table : Tagging.Tag_table.t option;
}

let scheme t = t.scheme
let governor t = t.governor
let registry t = t.registry
let tag_table t = t.table
let unprotected_allocs t = !(t.unprotected_allocs)
let unprotected_frees t = Governor.unprotected_free_count t.governor

let was_unprotected t addr =
  Hashtbl.mem t.ever_unprotected addr
  ||
  match Shadow.Object_registry.find_by_addr t.registry addr with
  | Some obj ->
    Hashtbl.mem t.ever_unprotected obj.Shadow.Object_registry.user_addr
  | None -> false

(* The backend ladder's syscall-free middle rung, beside raw blocks:
   [side_alloc] hands out a chunk it guards; [side_free] frees one it
   owns and returns false for anything else. *)
type side = {
  side_alloc : string -> int -> Addr.t;
  side_free : string -> Addr.t -> bool;
}

(* Shared alloc/free decision logic, parameterised over one backing
   pool/heap's four primitive operations.  [raw_live] tracks the blocks
   this particular backing currently holds without a registry record, so
   their frees can be routed back to the raw deallocator.  With a
   [side] rung, an allocation whose protection failed after retries
   stays guarded there instead of going raw, the [Tagged] rung
   allocates there, and every free is offered to it first. *)
let governed_ops ?side ~machine ~retry ~governor ~ever_unprotected
    ~unprotected_allocs ~try_alloc ~try_free_protected ~free_unprotected
    ~alloc_raw ~dealloc_raw () =
  let raw_live : (Addr.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let take_raw site size =
    let a = alloc_raw size in
    Hashtbl.replace raw_live a ();
    Hashtbl.replace ever_unprotected a ();
    incr unprotected_allocs;
    Schemes.trace_malloc machine site size a;
    a
  in
  let alloc ?(site = "<unknown>") size =
    Governor.on_alloc governor;
    if Governor.should_protect governor then
      match
        Retry.attempt ?policy:retry machine (fun () -> try_alloc ~site size)
      with
      | Ok a ->
        Governor.record_success governor;
        a
      | Error e -> (
        Governor.record_failure governor
          ~reason:("malloc:" ^ Fault_plan.error_label e);
        match side with
        | Some s -> s.side_alloc site size
        | None -> take_raw site size)
    else
      match (side, Governor.backend governor) with
      | Some s, `Tagged -> s.side_alloc site size
      | _, (`Shadow | `Tagged | `Raw) -> take_raw site size
  in
  let free ?(site = "<unknown>") a =
    if Option.fold side ~none:false ~some:(fun s -> s.side_free site a) then ()
    else if Hashtbl.mem raw_live a then begin
      Hashtbl.remove raw_live a;
      dealloc_raw a;
      Schemes.trace_free machine site a
    end
    else
      match
        Retry.attempt ?policy:retry machine (fun () ->
            try_free_protected ~site a)
      with
      | Ok _ -> Governor.record_success governor
      | Error e ->
        Governor.record_failure governor
          ~reason:("free:" ^ Fault_plan.error_label e);
        let obj = free_unprotected ~site a in
        Governor.record_unprotected_free governor;
        Hashtbl.replace ever_unprotected obj.Shadow.Object_registry.user_addr
          ()
  in
  (alloc, free)

let shadow_basic ?retry ?config machine =
  let registry = Shadow.Object_registry.create () in
  let governor = Governor.create ?config machine in
  let ever_unprotected = Hashtbl.create 64 in
  let unprotected_allocs = ref 0 in
  let malloc_heap = Heap.Freelist_malloc.create machine in
  let heap =
    Shadow.Shadow_heap.create ~registry
      ~allocator:(Heap.Freelist_malloc.as_allocator malloc_heap)
      machine
  in
  let alloc, free =
    governed_ops ~machine ~retry ~governor ~ever_unprotected
      ~unprotected_allocs
      ~try_alloc:(fun ~site size -> Shadow.Shadow_heap.try_malloc heap ~site size)
      ~try_free_protected:(fun ~site a -> Shadow.Shadow_heap.try_free heap ~site a)
      ~free_unprotected:(fun ~site a ->
        Shadow.Shadow_heap.free_unprotected heap ~site a)
      ~alloc_raw:(fun size -> Heap.Freelist_malloc.alloc malloc_heap size)
      ~dealloc_raw:(fun a -> Heap.Freelist_malloc.dealloc malloc_heap a)
      ()
  in
  let rec scheme =
    lazy
      {
        Scheme.name = "governed-shadow-basic";
        machine;
        malloc = (fun ?site size -> alloc ?site size);
        free = (fun ?site a -> free ?site a);
        load = Schemes.guarded_load machine registry;
        store = Schemes.guarded_store machine registry;
        pool_create =
          (fun ?elem_size:_ () -> Scheme.direct_pool (Lazy.force scheme));
        compute = (fun n -> Stats.count_instructions machine.Machine.stats n);
        extra_memory_bytes = (fun () -> 0);
        guarantees_detection = true;
        introspection = Scheme.No_introspection;
      }
  in
  {
    scheme = Lazy.force scheme;
    governor;
    registry;
    unprotected_allocs;
    ever_unprotected;
    table = None;
  }

(* The governed pool schemes: the classic ladder, and with a tag table
   the backend ladder — one machine, three detection backends, the
   governor choosing per allocation which one guards the object.
   Shadow paging while the protection syscalls are healthy; the tag
   table — still a detecting backend, but one that needs no syscalls
   and no fresh VA — when they are not (including as the fallback for a
   shadow allocation whose syscalls failed after retries, which the
   classic ladder could only leave raw); raw passthrough as the last
   resort.  Frees route by ownership: the tag table knows its chunks,
   raw blocks are tracked per pool, everything else is a shadow free. *)
let governed_pool ~name ?retry ?config ?tagged machine =
  let registry = Shadow.Object_registry.create () in
  let recycler = Apa.Page_recycler.create () in
  let governor = Governor.create ?config machine in
  let table =
    Option.map
      (fun (c : Schemes.tagged_config) ->
        Tagging.Tag_table.create ~tag_bits:c.tag_bits
          ~check_cost:c.tag_check_cost machine)
      tagged
  in
  let ever_unprotected = Hashtbl.create 64 in
  let unprotected_allocs = ref 0 in
  let make_pool ?elem_size () =
    Shadow.Shadow_pool.create ?elem_size ~recycler ~registry machine
  in
  let wrap_pool pool =
    (* untagged base -> tagged pointer, for free routing and destroy *)
    let tagged_live : (Addr.t, Addr.t) Hashtbl.t = Hashtbl.create 64 in
    let side table =
      {
        side_alloc =
          (fun site size ->
            let base = Shadow.Shadow_pool.alloc_raw pool size in
            let tp = Tagging.Tag_table.register table ~base ~size ~site in
            Hashtbl.replace tagged_live base tp;
            Schemes.trace_malloc machine site size tp;
            tp);
        side_free =
          (fun site a ->
            let base = Tagging.Tag_table.untag a in
            Hashtbl.mem tagged_live base
            && Tagging.Tag_table.owns table base
            &&
            match Tagging.Tag_table.free table a ~site with
            | b ->
              Hashtbl.remove tagged_live b;
              Shadow.Shadow_pool.dealloc_raw pool b;
              Schemes.trace_free machine site b;
              true
            | exception (Shadow.Report.Violation r as exn) ->
              Schemes.trace_violation machine r;
              raise exn);
      }
    in
    let alloc, free =
      governed_ops ?side:(Option.map side table) ~machine ~retry ~governor
        ~ever_unprotected ~unprotected_allocs
        ~try_alloc:(fun ~site size ->
          Shadow.Shadow_pool.try_alloc pool ~site size)
        ~try_free_protected:(fun ~site a ->
          Shadow.Shadow_pool.try_free pool ~site a)
        ~free_unprotected:(fun ~site a ->
          Shadow.Shadow_pool.free_unprotected pool ~site a)
        ~alloc_raw:(fun size ->
          let a = Shadow.Shadow_pool.alloc_raw pool size in
          (* The block may reuse granules of retired tagged chunks; drop
             their table entries so a legitimate raw access can never
             trip a stale tag.  Dangling tagged pointers into the range
             stop faulting — exactly the attributed coverage loss raw
             mode is. *)
          Option.iter
            (fun t -> Tagging.Tag_table.release t ~base:a ~size)
            table;
          a)
        ~dealloc_raw:(fun a -> Shadow.Shadow_pool.dealloc_raw pool a)
        ()
    in
    {
      Scheme.pool_alloc = alloc;
      pool_free = free;
      pool_destroy =
        (fun () ->
          Option.iter
            (fun t ->
              Hashtbl.iter
                (fun _ tp ->
                  ignore (Tagging.Tag_table.free t tp ~site:"<pool-destroy>"))
                tagged_live)
            table;
          Hashtbl.reset tagged_live;
          Shadow.Shadow_pool.destroy pool);
    }
  in
  let global_handle = wrap_pool (make_pool ()) in
  (* Tag check first (it owns the granule or it doesn't), then the
     guarded MMU path for shadow and raw addresses. *)
  let tag_checked access addr guarded =
    match table with
    | None -> guarded addr
    | Some t -> (
      match Tagging.Tag_table.check_access t addr ~access with
      | Some raw -> guarded raw
      | None -> guarded (Tagging.Tag_table.untag addr)
      | exception (Shadow.Report.Violation r as exn) ->
        Schemes.trace_violation machine r;
        raise exn)
  in
  let scheme =
    {
      Scheme.name;
      machine;
      malloc = (fun ?site size -> global_handle.Scheme.pool_alloc ?site size);
      free = (fun ?site a -> global_handle.Scheme.pool_free ?site a);
      load =
        (fun addr ~width ->
          tag_checked Perm.Read addr (fun a ->
              Schemes.guarded_load machine registry a ~width));
      store =
        (fun addr ~width v ->
          tag_checked Perm.Write addr (fun a ->
              Schemes.guarded_store machine registry a ~width v));
      pool_create = (fun ?elem_size () -> wrap_pool (make_pool ?elem_size ()));
      compute = (fun n -> Stats.count_instructions machine.Machine.stats n);
      extra_memory_bytes =
        (fun () ->
          Option.fold table ~none:0 ~some:(fun t ->
              (Tagging.Tag_table.stats t).Tagging.Tag_table.table_bytes));
      guarantees_detection = false;
      introspection = Scheme.No_introspection;
    }
  in
  { scheme; governor; registry; unprotected_allocs; ever_unprotected; table }

let shadow_pool ?retry ?config machine =
  governed_pool ~name:"governed-shadow-pool" ?retry ?config machine

let backend_ladder ?retry ?config ?(tagged = Schemes.default_tagged_config)
    machine =
  let config =
    Option.value config
      ~default:{ Governor.default_config with ladder = Governor.backend_ladder }
  in
  governed_pool ~name:"governed-backend-ladder" ?retry ~config ~tagged machine
