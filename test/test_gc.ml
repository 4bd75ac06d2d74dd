(* The conservative GC over freed shadow ranges and its endurance
   plumbing: mark-phase witnesses (root, interior pointer, stale heap
   word) must pin, unreferenced ranges must be reclaimed with coalesced
   batched munmaps and forgotten by the registry, pinned ranges must be
   re-scanned and released once their witness dies, Va_budget must
   classify pressure levels and project exhaustion, and the reuse
   policy's after-free hook must fire on the eager AND the epoch
   retirement free path. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let snapshot m = Stats.snapshot m.Machine.stats

(* A pool with no recycler: reclaims go through the (counted) munmap
   syscall path. *)
let make_pool ?unmap ?recycler () =
  let m = Machine.create () in
  let registry = Shadow.Object_registry.create () in
  let pool = Shadow.Shadow_pool.create ?unmap ?recycler ~registry m in
  (m, registry, pool)

let guarded_load registry m addr =
  Shadow.Detector.load registry ~in_free:false m addr ~width:8

let expect_trap name registry m addr =
  match guarded_load registry m addr with
  | v -> Alcotest.failf "%s: dangling load returned %d" name v
  | exception Shadow.Report.Violation _ -> ()

(* ---- mark-phase witnesses ---- *)

let test_register_root_pins () =
  let m, registry, pool = make_pool () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let a = Shadow.Shadow_pool.alloc pool ~site:"gc.c:1" 48 in
  Mmu.store m a ~width:8 7;
  Shadow.Shadow_pool.free pool ~site:"gc.c:2" a;
  Roots.set_register roots 3 a;
  let r = Shadow.Gc.run gc in
  check_int "no reclaim with a live register root" 0 r.Shadow.Gc.reclaimed_pages;
  check_int "one pinned range" 1 (List.length r.Shadow.Gc.pinned);
  (match r.Shadow.Gc.pinned with
   | [ p ] ->
     check_bool "witness names the register" true
       (p.Shadow.Gc.p_witness.Shadow.Gc.w_source = "register[3]")
   | _ -> Alcotest.fail "expected exactly one pinned range");
  (* the pinned range still traps: the guarantee survived the GC *)
  expect_trap "pinned probe" registry m a;
  check_bool "range still in the freed set" true
    (Shadow.Shadow_pool.freed_ranges pool <> [])

let test_interior_pointer_pins () =
  let m, _registry, pool = make_pool () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let a = Shadow.Shadow_pool.alloc pool ~site:"gc.c:3" 64 in
  Mmu.store m a ~width:8 7;
  Shadow.Shadow_pool.free pool ~site:"gc.c:4" a;
  (* an interior pointer — past the base, inside the object *)
  Roots.push_stack roots (a + 24);
  let r = Shadow.Gc.run gc in
  check_int "interior pointer pins" 1 (List.length r.Shadow.Gc.pinned);
  check_int "nothing reclaimed" 0 r.Shadow.Gc.reclaimed_pages

let test_stale_heap_word_pins () =
  let m, _registry, pool = make_pool () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let keeper = Shadow.Shadow_pool.alloc pool ~site:"gc.c:5" 64 in
  let victim = Shadow.Shadow_pool.alloc pool ~site:"gc.c:6" 48 in
  (* a live object's heap word holds the dying pointer *)
  Mmu.store m (keeper + 16) ~width:8 victim;
  Shadow.Shadow_pool.free pool ~site:"gc.c:7" victim;
  let r = Shadow.Gc.run gc in
  check_int "stale heap word pins" 1 (List.length r.Shadow.Gc.pinned);
  (match r.Shadow.Gc.pinned with
   | [ p ] ->
     check_bool "witness is a heap word" true
       (String.length p.Shadow.Gc.p_witness.Shadow.Gc.w_source >= 5
        && String.sub p.Shadow.Gc.p_witness.Shadow.Gc.w_source 0 5 = "heap:");
     check_bool "witness records the word address" true
       (p.Shadow.Gc.p_witness.Shadow.Gc.w_word_addr = Some (keeper + 16))
   | _ -> Alcotest.fail "expected exactly one pinned range");
  (* clear the heap word: the next run reclaims *)
  Mmu.store m (keeper + 16) ~width:8 0;
  let r2 = Shadow.Gc.run gc in
  check_int "unpinned after the word is cleared" 0
    (List.length r2.Shadow.Gc.pinned);
  check_bool "now reclaimed" true (r2.Shadow.Gc.reclaimed_pages > 0)

let test_no_witness_reclaims () =
  let m, registry, pool = make_pool () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let a = Shadow.Shadow_pool.alloc pool ~site:"gc.c:8" 48 in
  Mmu.store m a ~width:8 7;
  Shadow.Shadow_pool.free pool ~site:"gc.c:9" a;
  let freed_before = Shadow.Shadow_pool.freed_shadow_pages pool in
  check_bool "pages retained before the run" true (freed_before > 0);
  let r = Shadow.Gc.run gc in
  check_int "no pins" 0 (List.length r.Shadow.Gc.pinned);
  check_int "all freed pages reclaimed" freed_before r.Shadow.Gc.reclaimed_pages;
  check_int "freed set drained" 0 (Shadow.Shadow_pool.freed_shadow_pages pool);
  (* the diagnostic record is gone with the range *)
  check_bool "registry forgot the object" true
    (Shadow.Object_registry.find_by_addr registry a = None)

let test_pinned_rescan_then_reclaim () =
  let m, _registry, pool = make_pool () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let a = Shadow.Shadow_pool.alloc pool ~site:"gc.c:10" 48 in
  Mmu.store m a ~width:8 7;
  Shadow.Shadow_pool.free pool ~site:"gc.c:11" a;
  Roots.set_global roots ~slot:0 a;
  let r1 = Shadow.Gc.run gc in
  check_int "pinned while rooted" 1 (List.length r1.Shadow.Gc.pinned);
  let r2 = Shadow.Gc.run gc in
  check_int "still pinned on re-scan" 1 (List.length r2.Shadow.Gc.pinned);
  check_int "still nothing reclaimed" 0 r2.Shadow.Gc.reclaimed_pages;
  Roots.clear_global roots ~slot:0;
  let r3 = Shadow.Gc.run gc in
  check_int "released once the root died" 0 (List.length r3.Shadow.Gc.pinned);
  check_bool "pages reclaimed" true (r3.Shadow.Gc.reclaimed_pages > 0);
  check_int "nothing pinned anymore" 0 (List.length (Shadow.Gc.last_pinned gc))

(* ---- batched munmap on the reclaim path ---- *)

let test_reclaim_coalesces_munmap () =
  let m, _registry, pool = make_pool () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  (* adjacent single-page shadow ranges: elem_size-default pool places
     consecutive allocations on consecutive shadow pages *)
  let objs =
    List.init 4 (fun i -> Shadow.Shadow_pool.alloc pool ~site:"gc.c:12" (40 + i))
  in
  List.iter (fun a -> Mmu.store m a ~width:8 1) objs;
  List.iter (fun a -> Shadow.Shadow_pool.free pool ~site:"gc.c:13" a) objs;
  let ranges = Shadow.Shadow_pool.freed_ranges pool in
  check_int "four candidate ranges" 4 (List.length ranges);
  let runs = Syscalls.coalesce_ranges ranges in
  let before = (snapshot m).Stats.syscalls_munmap in
  let r = Shadow.Gc.run gc in
  let after = (snapshot m).Stats.syscalls_munmap in
  check_bool "reclaimed all four" true (r.Shadow.Gc.reclaimed_pages >= 4);
  check_int "one munmap per merged run, not per range" (List.length runs)
    (after - before);
  check_bool "fewer syscalls than ranges" true (after - before < 4)

let test_reclaim_recycler_no_syscall () =
  let recycler = Apa.Page_recycler.create () in
  let m, _registry, pool = make_pool ~recycler () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let a = Shadow.Shadow_pool.alloc pool ~site:"gc.c:14" 48 in
  Mmu.store m a ~width:8 1;
  Shadow.Shadow_pool.free pool ~site:"gc.c:15" a;
  let before = (snapshot m).Stats.syscalls_munmap in
  let r = Shadow.Gc.run gc in
  check_bool "reclaimed through the recycler" true
    (r.Shadow.Gc.reclaimed_pages > 0);
  check_int "no munmap when pages go to the free list" before
    (snapshot m).Stats.syscalls_munmap

(* ---- Va_budget ---- *)

let test_va_budget_levels () =
  let m = Machine.create () in
  let b = Shadow.Va_budget.create ~budget_pages:100 m in
  check_bool "fresh machine is ok" true
    (Shadow.Va_budget.poll b = Shadow.Va_budget.L_ok);
  (* burn VA through the kernel: watermarks are 50/75/90 *)
  let burn pages = ignore (Kernel.mmap m ~pages : Addr.t) in
  let expect_level name want =
    Alcotest.check Alcotest.string name
      (Shadow.Va_budget.level_label want)
      (Shadow.Va_budget.level_label (Shadow.Va_budget.poll b))
  in
  burn 50;
  expect_level "50% advises gc" Shadow.Va_budget.L_gc;
  burn 25;
  expect_level "75% tightens" Shadow.Va_budget.L_tighten;
  burn 15;
  expect_level "90% degrades" Shadow.Va_budget.L_degrade;
  check_int "remaining" 10 (Shadow.Va_budget.remaining_pages b);
  (* one transition per crossing, in order *)
  let levels =
    List.map
      (fun (tr : Shadow.Va_budget.transition) ->
        Shadow.Va_budget.level_label tr.Shadow.Va_budget.to_level)
      (Shadow.Va_budget.transitions b)
  in
  check_bool "ordered transitions" true (levels = [ "gc"; "tighten"; "degrade" ]);
  burn 10;
  check_int "used never exceeds accounting" 100 (Shadow.Va_budget.used_pages b);
  check_int "remaining floors at zero" 0 (Shadow.Va_budget.remaining_pages b)

let test_va_budget_projection () =
  let m = Machine.create () in
  let b = Shadow.Va_budget.create ~budget_pages:1000 m in
  ignore (Kernel.mmap m ~pages:100 : Addr.t);
  (* 900 pages left at 9 pages/s = 100 s *)
  (match Shadow.Va_budget.seconds_until_exhaustion b ~pages_per_second:9.0 with
   | Some s -> Alcotest.check (Alcotest.float 1e-6) "projection" 100.0 s
   | None -> Alcotest.fail "finite rate must project");
  check_bool "zero rate never exhausts" true
    (Shadow.Va_budget.seconds_until_exhaustion b ~pages_per_second:0.0 = None);
  check_bool "negative rate rejected" true
    (match Shadow.Va_budget.seconds_until_exhaustion b ~pages_per_second:(-1.0) with
     | exception Invalid_argument _ -> true
     | _ -> false);
  ignore (Kernel.mmap m ~pages:900 : Addr.t);
  check_bool "already exhausted projects zero" true
    (Shadow.Va_budget.seconds_until_exhaustion b ~pages_per_second:5.0 = Some 0.);
  check_bool "invalid watermarks rejected" true
    (match
       Shadow.Va_budget.create
         ~config:
           {
             Shadow.Va_budget.budget_pages = 10;
             gc_watermark = 0.9;
             tighten_watermark = 0.5;
             degrade_watermark = 0.95;
           }
         ~budget_pages:10 m
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ---- the after-free hook: eager and epoch paths ---- *)

let test_hook_fires_on_eager_free () =
  let m = Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool m in
  let pool =
    match Runtime.Schemes.introspect scheme with
    | Runtime.Schemes.Shadow_pool { global; _ } -> global
    | _ -> Alcotest.fail "no introspection"
  in
  let policy =
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 1 })
      pool
  in
  Shadow.Reuse_policy.attach policy;
  let a = scheme.Runtime.Scheme.malloc ~site:"hook.c:1" 48 in
  scheme.Runtime.Scheme.store a ~width:8 1;
  scheme.Runtime.Scheme.free ~site:"hook.c:2" a;
  (* trigger 1: the hook must have fired and reclaimed on this free *)
  check_bool "eager free ran the policy" true
    (Shadow.Reuse_policy.reclaimed_pages policy > 0)

let test_hook_fires_on_epoch_retirement () =
  let m = Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool
      ~config:(Runtime.Schemes.Epoch
                 { Runtime.Schemes.default_epoch_config with max_frees = 4 })
      m in
  let pool =
    match Runtime.Schemes.introspect scheme with
    | Runtime.Schemes.Shadow_pool { global; _ } -> global
    | _ -> Alcotest.fail "no introspection"
  in
  let policy =
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 1 })
      pool
  in
  Shadow.Reuse_policy.attach policy;
  let objs =
    List.init 3 (fun i ->
        let a = scheme.Runtime.Scheme.malloc ~site:"hook.c:3" (40 + i) in
        scheme.Runtime.Scheme.store a ~width:8 i;
        a)
  in
  List.iter (fun a -> scheme.Runtime.Scheme.free ~site:"hook.c:4" a) objs;
  (* quarantined, not yet retired: the deferred frees must NOT have run
     the reclamation hook *)
  check_int "no reclamation while quarantined" 0
    (Shadow.Reuse_policy.reclaimed_pages policy);
  (* the 4th free fills the epoch and retires it *)
  let last = scheme.Runtime.Scheme.malloc ~site:"hook.c:5" 48 in
  scheme.Runtime.Scheme.store last ~width:8 9;
  scheme.Runtime.Scheme.free ~site:"hook.c:6" last;
  check_bool "epoch retirement ran the policy" true
    (Shadow.Reuse_policy.reclaimed_pages policy > 0)

let test_trigger_tightening_caps () =
  let _, _, pool = make_pool () in
  let policy =
    Shadow.Reuse_policy.create
      (Shadow.Reuse_policy.Interval_reuse { trigger_pages = 64 })
      pool
  in
  check_bool "configured trigger" true
    (Shadow.Reuse_policy.trigger_pages policy = Some 64);
  Shadow.Reuse_policy.set_trigger_pages policy 16;
  check_bool "tightened" true
    (Shadow.Reuse_policy.trigger_pages policy = Some 16);
  Shadow.Reuse_policy.set_trigger_pages policy 256;
  check_bool "cannot loosen past the configured trigger" true
    (Shadow.Reuse_policy.trigger_pages policy = Some 64);
  check_bool "non-positive rejected" true
    (match Shadow.Reuse_policy.set_trigger_pages policy 0 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  let manual = Shadow.Reuse_policy.create Shadow.Reuse_policy.Manual pool in
  Shadow.Reuse_policy.set_trigger_pages manual 8;
  check_bool "manual has no trigger" true
    (Shadow.Reuse_policy.trigger_pages manual = None)

(* ---- gc metrics ---- *)

let test_gc_metrics_and_event () =
  let m, _registry, pool = make_pool () in
  let roots = Roots.create () in
  let gc = Shadow.Gc.create ~roots pool in
  let a = Shadow.Shadow_pool.alloc pool ~site:"gc.c:16" 48 in
  Mmu.store m a ~width:8 1;
  Shadow.Shadow_pool.free pool ~site:"gc.c:17" a;
  let b = Shadow.Shadow_pool.alloc pool ~site:"gc.c:18" 48 in
  Mmu.store m b ~width:8 1;
  Shadow.Shadow_pool.free pool ~site:"gc.c:19" b;
  Roots.set_register roots 0 b;
  ignore (Shadow.Gc.run gc : Shadow.Gc.report);
  let registry = Stats.registry m.Machine.stats in
  let gauge name =
    int_of_float
      (Telemetry.Metrics.gauge_value (Telemetry.Metrics.gauge registry name))
  in
  check_bool "va_pages_reclaimed gauge moved" true
    (gauge "shadow.va_pages_reclaimed" > 0);
  check_int "gc_pinned_ranges gauge" 1 (gauge "shadow.gc_pinned_ranges");
  check_bool "scan cost charged" true (Shadow.Gc.total_scanned_words gc > 0);
  check_int "runs counted" 1 (Shadow.Gc.runs gc)

let () =
  Alcotest.run "gc"
    [
      ( "mark-phase",
        [
          Alcotest.test_case "register root pins" `Quick test_register_root_pins;
          Alcotest.test_case "interior pointer pins" `Quick
            test_interior_pointer_pins;
          Alcotest.test_case "stale heap word pins" `Quick
            test_stale_heap_word_pins;
          Alcotest.test_case "no witness reclaims" `Quick test_no_witness_reclaims;
          Alcotest.test_case "pinned re-scan then reclaim" `Quick
            test_pinned_rescan_then_reclaim;
        ] );
      ( "reclaim-batching",
        [
          Alcotest.test_case "coalesced munmap" `Quick
            test_reclaim_coalesces_munmap;
          Alcotest.test_case "recycler path has no syscall" `Quick
            test_reclaim_recycler_no_syscall;
        ] );
      ( "va-budget",
        [
          Alcotest.test_case "watermark levels" `Quick test_va_budget_levels;
          Alcotest.test_case "exhaustion projection" `Quick
            test_va_budget_projection;
        ] );
      ( "after-free-hook",
        [
          Alcotest.test_case "eager free fires" `Quick test_hook_fires_on_eager_free;
          Alcotest.test_case "epoch retirement fires" `Quick
            test_hook_fires_on_epoch_retirement;
          Alcotest.test_case "tightening caps at config" `Quick
            test_trigger_tightening_caps;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "gauges and counters" `Quick
            test_gc_metrics_and_event;
        ] );
    ]
