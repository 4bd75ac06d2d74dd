(* Quarantine-window semantics of the epoch-batched scheme: a dangling
   use inside the open epoch (software backstop), at the exact
   retirement boundary, and after retirement (both MMU) must all be
   detected, under the fatal policy and under the recoverable wrapper,
   with full diagnostics a fleet crash report can attribute.  Plus the
   building blocks: range coalescing, the slab alias cache, and the
   split-and-retry fallback when a coalesced mprotect fails. *)

open Vmm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let epoch_stats scheme =
  match Runtime.Schemes.introspect scheme with
  | Runtime.Schemes.Shadow_pool { stats; _ } -> (
    match stats () with
    | Runtime.Schemes.Epoch_stats s -> s
    | _ -> Alcotest.fail "epoch scheme does not introspect")
  | _ -> Alcotest.fail "epoch scheme does not introspect"

let drain scheme =
  match Runtime.Schemes.introspect scheme with
  | Runtime.Schemes.Shadow_pool { stats; drain; _ } -> (
    match stats () with
    | Runtime.Schemes.Epoch_stats _ -> drain ()
    | _ -> Alcotest.fail "epoch scheme does not introspect")
  | _ -> Alcotest.fail "epoch scheme does not introspect"

let expect_violation name pred thunk =
  match thunk () with
  | _ -> Alcotest.failf "%s: no violation raised" name
  | exception Shadow.Report.Violation r ->
    Alcotest.check Alcotest.bool (name ^ ": report shape") true (pred r);
    r

let is_uaf access (r : Shadow.Report.t) =
  r.Shadow.Report.kind = Shadow.Report.Use_after_free access

(* ---- coalesce_ranges ---- *)

let test_coalesce () =
  let p = Addr.page_size in
  let c = Syscalls.coalesce_ranges in
  check_bool "empty" true (c [] = []);
  check_bool "singleton" true (c [ (0, 2) ] = [ (0, 2) ]);
  check_bool "adjacent runs fuse" true
    (c [ (0, 1); (p, 2) ] = [ (0, 3) ]);
  check_bool "order does not matter" true
    (c [ (p, 2); (0, 1) ] = [ (0, 3) ]);
  check_bool "overlap fuses without double-counting" true
    (c [ (0, 3); (p, 1) ] = [ (0, 3) ]);
  check_bool "gap keeps runs apart" true
    (c [ (0, 1); (3 * p, 1) ] = [ (0, 1); (3 * p, 1) ]);
  check_bool "zero-page ranges are dropped" true
    (c [ (0, 0); (p, 1) ] = [ (p, 1) ])

(* ---- slab cache ---- *)

let test_slab_cache () =
  let m = Machine.create () in
  let slab = Shadow.Slab.create ~copies:4 m in
  let src = Kernel.mmap m ~pages:1 in
  let take () =
    match Shadow.Slab.take slab ~src ~pages:1 with
    | Ok a -> a
    | Error _ -> Alcotest.fail "slab take failed"
  in
  let before = (Stats.snapshot m.Machine.stats).Stats.syscalls_mremap in
  let a0 = take () in
  check_int "first take is one vectored syscall" (before + 1)
    (Stats.snapshot m.Machine.stats).Stats.syscalls_mremap;
  check_int "three spares cached" 3 (Shadow.Slab.cached_aliases slab);
  let a1 = take () in
  check_int "second take is free" (before + 1)
    (Stats.snapshot m.Machine.stats).Stats.syscalls_mremap;
  check_bool "copies are contiguous" true (a1 = a0 + Addr.page_size);
  check_int "one hit" 1 (Shadow.Slab.hits slab);
  check_int "one miss" 1 (Shadow.Slab.misses slab);
  (* aliases really alias: a store through the canonical page is visible
     through both copies *)
  Mmu.store m src ~width:8 77;
  check_int "alias 0 sees canonical bytes" 77 (Mmu.load m a0 ~width:8);
  check_int "alias 1 sees canonical bytes" 77 (Mmu.load m a1 ~width:8);
  let released = Shadow.Slab.flush slab in
  check_int "flush releases the two remaining spares" 2 released;
  check_int "cache empty after flush" 0 (Shadow.Slab.cached_aliases slab)

(* ---- quarantine window, fatal policy ---- *)

let test_in_window_backstop () =
  let m = Machine.create () in
  let scheme = Runtime.Scheme_spec.(build ours_epoch) m in
  let p = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  scheme.Runtime.Scheme.store p ~width:8 42;
  let mprotects () = (Stats.snapshot m.Machine.stats).Stats.syscalls_mprotect in
  let before = mprotects () in
  scheme.Runtime.Scheme.free ~site:"q.c:2" p;
  check_int "free issued no protection syscall" before (mprotects ());
  let r =
    expect_violation "in-window read" (is_uaf Perm.Read) (fun () ->
        scheme.Runtime.Scheme.load p ~width:8)
  in
  (match r.Shadow.Report.object_info with
   | Some info ->
     check_string "alloc site survives" "q.c:1" info.Shadow.Report.alloc_site;
     check_bool "free site survives" true
       (info.Shadow.Report.free_site = Some "q.c:2");
     check_int "offset is within the object" 0 info.Shadow.Report.offset
   | None -> Alcotest.fail "backstop report carries no object info");
  let es = epoch_stats scheme in
  check_int "caught by the backstop" 1 es.Runtime.Schemes.backstop_hits;
  check_int "nothing retired yet" 0 es.Runtime.Schemes.epochs_retired;
  (* a write is a violation too *)
  ignore
    (expect_violation "in-window write" (is_uaf Perm.Write) (fun () ->
         scheme.Runtime.Scheme.store (p + 8) ~width:8 1))

let test_in_window_double_free () =
  let m = Machine.create () in
  let scheme = Runtime.Scheme_spec.(build ours_epoch) m in
  let p = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  scheme.Runtime.Scheme.free ~site:"q.c:2" p;
  ignore
    (expect_violation "double free in window"
       (fun r -> r.Shadow.Report.kind = Shadow.Report.Double_free)
       (fun () -> scheme.Runtime.Scheme.free ~site:"q.c:3" p))

let test_at_retirement_mmu () =
  let m = Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool
      ~config:(Runtime.Schemes.Epoch
                 { Runtime.Schemes.default_epoch_config with max_frees = 2 })
      m in
  let p = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  let q = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  scheme.Runtime.Scheme.free ~site:"q.c:2" p;
  scheme.Runtime.Scheme.free ~site:"q.c:2" q;
  (* the second free filled the epoch and retired it synchronously *)
  let es = epoch_stats scheme in
  check_int "one retirement" 1 es.Runtime.Schemes.epochs_retired;
  check_int "both frees retired" 2 es.Runtime.Schemes.epoch_retired_frees;
  check_int "nothing left pending" 0 es.Runtime.Schemes.epoch_pending_frees;
  ignore
    (expect_violation "use at the retirement boundary" (is_uaf Perm.Read)
       (fun () -> scheme.Runtime.Scheme.load q ~width:8));
  let es = epoch_stats scheme in
  check_int "MMU trapped it, not the backstop" 0
    es.Runtime.Schemes.backstop_hits

let test_post_retirement_mmu () =
  let m = Machine.create () in
  let scheme = Runtime.Scheme_spec.(build ours_epoch) m in
  let p = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  scheme.Runtime.Scheme.free ~site:"q.c:2" p;
  drain scheme;
  let r =
    expect_violation "use after drain" (is_uaf Perm.Read) (fun () ->
        scheme.Runtime.Scheme.load p ~width:8)
  in
  (match r.Shadow.Report.object_info with
   | Some info ->
     check_string "diagnostics identical to the eager scheme" "q.c:1"
       info.Shadow.Report.alloc_site
   | None -> Alcotest.fail "post-retirement report carries no object info");
  check_int "backstop never fired" 0 (epoch_stats scheme).Runtime.Schemes.backstop_hits

(* Coalescing actually batches: adjacent slab copies freed together must
   retire with a single ranged protect. *)
let test_retirement_coalesces () =
  let m = Machine.create () in
  let scheme = Runtime.Schemes.shadow_pool
      ~config:(Runtime.Schemes.Epoch
                 { Runtime.Schemes.default_epoch_config with max_frees = 8 })
      m in
  let ptrs =
    List.init 8 (fun i ->
        let a = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
        scheme.Runtime.Scheme.store a ~width:8 i;
        a)
  in
  let before = (Stats.snapshot m.Machine.stats).Stats.syscalls_mprotect in
  List.iter (fun a -> scheme.Runtime.Scheme.free ~site:"q.c:2" a) ptrs;
  let issued =
    (Stats.snapshot m.Machine.stats).Stats.syscalls_mprotect - before
  in
  let es = epoch_stats scheme in
  check_int "one retirement" 1 es.Runtime.Schemes.epochs_retired;
  check_bool "8 frees coalesced into at most 2 protects" true (issued <= 2);
  check_int "protect calls match the syscall count" issued
    es.Runtime.Schemes.coalesced_protects

(* ---- recoverable policy over the quarantine window ---- *)

let make_recoverable ?max_frees () =
  let m = Machine.create () in
  let reports = ref [] in
  let config =
    match max_frees with
    | None -> Runtime.Schemes.default_epoch_config
    | Some max_frees -> { Runtime.Schemes.default_epoch_config with max_frees }
  in
  let scheme =
    Runtime.Schemes.recoverable
      ~on_report:(fun r -> reports := r :: !reports)
      (Runtime.Schemes.shadow_pool ~config:(Runtime.Schemes.Epoch config) m)
  in
  (scheme, reports)

let test_recoverable_in_window () =
  let scheme, reports = make_recoverable () in
  let p = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  scheme.Runtime.Scheme.store p ~width:8 42;
  scheme.Runtime.Scheme.free ~site:"q.c:2" p;
  (* the backstop re-raises on the retried access (the page was never
     protected, so there is nothing to lift), so the recovered load
     yields 0 rather than the stale bytes — but the workload continues
     and the report is delivered exactly once *)
  check_int "recovered in-window load yields 0" 0
    (scheme.Runtime.Scheme.load p ~width:8);
  check_int "one report" 1 (List.length !reports);
  let q = scheme.Runtime.Scheme.malloc ~site:"q.c:3" 32 in
  scheme.Runtime.Scheme.store q ~width:8 7;
  check_int "scheme still serves allocations" 7
    (scheme.Runtime.Scheme.load q ~width:8)

let test_recoverable_post_retirement () =
  let scheme, reports = make_recoverable ~max_frees:1 () in
  let p = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  scheme.Runtime.Scheme.store p ~width:8 42;
  scheme.Runtime.Scheme.free ~site:"q.c:2" p;
  (* max_frees = 1: the free retired immediately, so this is the eager
     scheme's recovery path — protection lifted, stale bytes readable *)
  check_int "stale value readable after recovery" 42
    (scheme.Runtime.Scheme.load p ~width:8);
  check_int "one report" 1 (List.length !reports)

(* Fleet attribution: a backstop report must carry everything the crash
   pipeline needs — same signature inputs as a post-retirement trap. *)
let test_fleet_attribution () =
  let scheme, reports = make_recoverable () in
  let p = scheme.Runtime.Scheme.malloc ~site:"srv.c:10" 48 in
  scheme.Runtime.Scheme.free ~site:"srv.c:20" p;
  ignore (scheme.Runtime.Scheme.load p ~width:8);
  match !reports with
  | [ r ] ->
    let c = Fleet.Crash.of_violation ~scheme:"epoch" ~shard:3 ~at_cycles:77 r in
    check_string "kind label" "use-after-free (read)" c.Fleet.Crash.kind;
    check_string "alloc site" "srv.c:10" c.Fleet.Crash.alloc_site;
    check_string "free site" "srv.c:20" c.Fleet.Crash.free_site;
    check_bool "object size carried" true (c.Fleet.Crash.object_size = Some 48);
    (* the in-window report signs identically to the post-retirement
       report for the same bug: the window is invisible to dedup *)
    let scheme2, reports2 = make_recoverable ~max_frees:1 () in
    let p2 = scheme2.Runtime.Scheme.malloc ~site:"srv.c:10" 48 in
    scheme2.Runtime.Scheme.free ~site:"srv.c:20" p2;
    ignore (scheme2.Runtime.Scheme.load p2 ~width:8);
    (match !reports2 with
     | [ r2 ] ->
       let c2 =
         Fleet.Crash.of_violation ~scheme:"epoch" ~shard:5 ~at_cycles:99 r2
       in
       check_bool "same signature either side of retirement" true
         (Fleet.Crash.signature c = Fleet.Crash.signature c2)
     | _ -> Alcotest.fail "expected one post-retirement report")
  | _ -> Alcotest.fail "expected exactly one report"

(* ---- split-and-retry on a failed coalesced protect ---- *)

(* One fatal mprotect: the batched call fails, the split fallback
   protects each object individually, nothing stays unprotected. *)
let test_split_retry_recovers () =
  let plan =
    Fault_plan.create
      [
        {
          Fault_plan.calls = [ Fault_plan.Mprotect ];
          trigger = Fault_plan.Nth_call 1;
          error = Fault_plan.Fatal Fault_plan.Eacces;
        };
      ]
  in
  let m = Machine.create ~fault_plan:plan () in
  let scheme = Runtime.Schemes.shadow_pool
      ~config:(Runtime.Schemes.Epoch
                 { Runtime.Schemes.default_epoch_config with max_frees = 2 })
      m in
  let p = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  let q = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  scheme.Runtime.Scheme.free ~site:"q.c:2" p;
  scheme.Runtime.Scheme.free ~site:"q.c:2" q;
  let es = epoch_stats scheme in
  check_bool "split fallback engaged" true
    (es.Runtime.Schemes.epoch_split_retries > 0);
  check_int "every object protected in the end" 0
    es.Runtime.Schemes.epoch_failed_protects;
  check_int "both frees retired" 2 es.Runtime.Schemes.epoch_retired_frees;
  ignore
    (expect_violation "protection held despite the fault" (is_uaf Perm.Read)
       (fun () -> scheme.Runtime.Scheme.load p ~width:8))

(* Persistent mprotect failure: even the split calls fail.  The objects
   must stay quarantined — still pending, still caught by the backstop —
   rather than being silently released unprotected. *)
let test_split_retry_keeps_quarantine () =
  let plan =
    Fault_plan.create
      [
        {
          Fault_plan.calls = [ Fault_plan.Mprotect ];
          trigger = Fault_plan.Burst { first = 1; length = 1_000 };
          error = Fault_plan.Fatal Fault_plan.Eacces;
        };
      ]
  in
  let m = Machine.create ~fault_plan:plan () in
  let scheme = Runtime.Schemes.shadow_pool
      ~config:(Runtime.Schemes.Epoch
                 { Runtime.Schemes.default_epoch_config with max_frees = 2 })
      m in
  let p = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  let q = scheme.Runtime.Scheme.malloc ~site:"q.c:1" 48 in
  scheme.Runtime.Scheme.free ~site:"q.c:2" p;
  scheme.Runtime.Scheme.free ~site:"q.c:2" q;
  let es = epoch_stats scheme in
  check_bool "failures recorded" true
    (es.Runtime.Schemes.epoch_failed_protects > 0);
  check_int "nothing released unprotected" 0
    es.Runtime.Schemes.epoch_retired_frees;
  check_int "objects remain pending" 2 es.Runtime.Schemes.epoch_pending_frees;
  (* detection survives the total syscall outage via the backstop *)
  ignore
    (expect_violation "backstop still guards the quarantine"
       (is_uaf Perm.Read) (fun () -> scheme.Runtime.Scheme.load p ~width:8));
  let es = epoch_stats scheme in
  check_int "backstop hit" 1 es.Runtime.Schemes.backstop_hits

(* ---- pool destroy with an open epoch ---- *)

let test_destroy_retires_epoch () =
  let m = Machine.create () in
  let scheme = Runtime.Scheme_spec.(build ours_epoch) m in
  let h = scheme.Runtime.Scheme.pool_create () in
  let p = h.Runtime.Scheme.pool_alloc ~site:"q.c:1" 48 in
  h.Runtime.Scheme.pool_free ~site:"q.c:2" p;
  h.Runtime.Scheme.pool_destroy ();
  (* destroy retires the open epoch, so the in-window freed page is
     PROT_NONE afterwards exactly as under the eager scheme; with the
     registry record released by destroy the trap classifies as a wild
     access — the eager scheme's post-destroy answer, byte for byte *)
  ignore
    (expect_violation "use after pool destroy"
       (fun r ->
         match r.Shadow.Report.kind with
         | Shadow.Report.Wild_access _ | Shadow.Report.Use_after_free _ -> true
         | _ -> false)
       (fun () -> scheme.Runtime.Scheme.load p ~width:8))

let () =
  Alcotest.run "epoch"
    [
      ( "coalesce",
        [ Alcotest.test_case "range merging" `Quick test_coalesce ] );
      ( "slab",
        [ Alcotest.test_case "alias cache" `Quick test_slab_cache ] );
      ( "quarantine",
        [
          Alcotest.test_case "in-window backstop" `Quick test_in_window_backstop;
          Alcotest.test_case "in-window double free" `Quick
            test_in_window_double_free;
          Alcotest.test_case "at retirement" `Quick test_at_retirement_mmu;
          Alcotest.test_case "post retirement" `Quick test_post_retirement_mmu;
          Alcotest.test_case "retirement coalesces" `Quick
            test_retirement_coalesces;
          Alcotest.test_case "destroy retires epoch" `Quick
            test_destroy_retires_epoch;
        ] );
      ( "recoverable",
        [
          Alcotest.test_case "in-window" `Quick test_recoverable_in_window;
          Alcotest.test_case "post-retirement" `Quick
            test_recoverable_post_retirement;
          Alcotest.test_case "fleet attribution" `Quick test_fleet_attribution;
        ] );
      ( "split-retry",
        [
          Alcotest.test_case "recovers per object" `Quick
            test_split_retry_recovers;
          Alcotest.test_case "keeps quarantine on failure" `Quick
            test_split_retry_keeps_quarantine;
        ] );
    ]
