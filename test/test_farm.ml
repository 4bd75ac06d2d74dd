(* The farm's determinism and merge contract: fixed (seed, shards) gives
   identical results; merged totals are identical across shard counts
   and policies; the scheduler partitions the connection set exactly. *)

module Scheduler = Danguard_farm.Scheduler
module Farm = Danguard_farm.Farm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.0))

let run ?(policy = Scheduler.Round_robin) ?(seed = 0x5eed) ?(shards = 2)
    ?(connections = 24) ?(probe_every = 6) ?(config = Runtime.Scheme_spec.ours)
    () =
  Farm.run_server ~policy ~seed ~probe_every ~config ~shards ~connections
    Workload.Servers.ghttpd

(* ---- scheduler ---- *)

let test_scheduler_partition () =
  let sched =
    Scheduler.create ~policy:Scheduler.Round_robin ~seed:7 ~shards:3
      ~connections:17
  in
  let assignment = Scheduler.assignment sched in
  let served = Array.concat (Array.to_list assignment) in
  check_int "every connection dealt once" 17 (Array.length served);
  Array.sort compare served;
  Array.iteri (fun i conn -> check_int "exact set [0,n)" i conn) served;
  (* the deal is balanced to within one connection *)
  Array.iter
    (fun q ->
      let n = Array.length q in
      check_bool "balanced" true (n = 17 / 3 || n = (17 / 3) + 1))
    assignment

let test_scheduler_deterministic () =
  let deal () =
    Scheduler.assignment
      (Scheduler.create ~policy:Scheduler.Round_robin ~seed:42 ~shards:4
         ~connections:32)
  in
  check_bool "same seed, same deal" true (deal () = deal ());
  let other =
    Scheduler.assignment
      (Scheduler.create ~policy:Scheduler.Round_robin ~seed:43 ~shards:4
         ~connections:32)
  in
  check_bool "different seed shuffles differently" true (deal () <> other)

let test_scheduler_drains () =
  let sched =
    Scheduler.create ~policy:Scheduler.Work_steal ~seed:1 ~shards:2
      ~connections:9
  in
  let drained = ref [] in
  let rec drain shard =
    match Scheduler.next sched ~shard with
    | None -> ()
    | Some c ->
      drained := c :: !drained;
      drain shard
  in
  drain 0;
  drain 1;
  let served = List.sort compare !drained in
  check_bool "work-steal serves the exact set" true
    (served = List.init 9 Fun.id)

(* ---- farm determinism ---- *)

let totals_fingerprint (r : Farm.result) =
  ( r.Farm.totals.Farm.connections,
    r.Farm.totals.Farm.detections,
    r.Farm.totals.Farm.syscalls,
    Vmm.Stats.field_values r.Farm.totals.Farm.stats )

let test_farm_deterministic () =
  let a = run () and b = run () in
  check_bool "identical totals" true
    (totals_fingerprint a = totals_fingerprint b);
  check_float "identical makespan" a.Farm.makespan_cycles
    b.Farm.makespan_cycles;
  check_bool "identical per-shard reports" true
    (a.Farm.per_shard = b.Farm.per_shard)

let test_farm_totals_shard_invariant () =
  let base = run ~shards:1 () in
  List.iter
    (fun shards ->
      let r = run ~shards () in
      check_bool
        (Printf.sprintf "totals at %d shards equal single-shard" shards)
        true
        (totals_fingerprint r = totals_fingerprint base);
      check_float
        (Printf.sprintf "latency p99 at %d shards" shards)
        base.Farm.latency.Harness.Latency.q99 r.Farm.latency.Harness.Latency.q99)
    [ 2; 3; 4 ]

let test_farm_work_steal_totals () =
  let rr = run ~policy:Scheduler.Round_robin () in
  let ws = run ~policy:Scheduler.Work_steal () in
  check_bool "work-steal merged totals equal round-robin" true
    (totals_fingerprint rr = totals_fingerprint ws)

let test_farm_detections () =
  (* probe_every 6 over indices 0..23 probes 0,6,12,18 *)
  let r = run () in
  check_int "ours detects every probe" 4 r.Farm.totals.Farm.detections;
  let native = run ~config:Runtime.Scheme_spec.native () in
  check_int "native detects nothing" 0 native.Farm.totals.Farm.detections;
  check_int "same connections served" 24
    native.Farm.totals.Farm.connections

let test_farm_speedup () =
  let one = run ~shards:1 ~connections:32 () in
  let four = run ~shards:4 ~connections:32 () in
  check_bool "4 shards at least double throughput" true
    (four.Farm.throughput >= 2.0 *. one.Farm.throughput);
  check_bool "makespan shrinks" true
    (four.Farm.makespan_cycles < one.Farm.makespan_cycles)

let test_farm_merged_registry () =
  let r = run () in
  let reg = r.Farm.registry in
  check_int "farm.connections counter merged" 24
    (Telemetry.Metrics.counter_value
       (Telemetry.Metrics.counter reg "farm.connections"));
  let hist = Telemetry.Metrics.histogram reg "farm.latency_cycles" in
  check_int "one latency sample per connection" 24
    (Telemetry.Histogram.count hist);
  (* merged vmm counters match the snapshot view *)
  let stats = Vmm.Stats.snapshot (Vmm.Stats.create ~registry:reg ()) in
  check_int "registry syscalls = totals" r.Farm.totals.Farm.syscalls
    (Vmm.Stats.total_syscalls stats)

let () =
  Alcotest.run "farm"
    [
      ( "scheduler",
        [
          Alcotest.test_case "exact partition" `Quick test_scheduler_partition;
          Alcotest.test_case "deterministic deal" `Quick
            test_scheduler_deterministic;
          Alcotest.test_case "work-steal drains" `Quick test_scheduler_drains;
        ] );
      ( "farm",
        [
          Alcotest.test_case "deterministic run" `Quick test_farm_deterministic;
          Alcotest.test_case "totals shard-invariant" `Quick
            test_farm_totals_shard_invariant;
          Alcotest.test_case "work-steal totals" `Quick
            test_farm_work_steal_totals;
          Alcotest.test_case "probe detections" `Quick test_farm_detections;
          Alcotest.test_case "simulated speedup" `Quick test_farm_speedup;
          Alcotest.test_case "merged registry" `Quick test_farm_merged_registry;
        ] );
    ]
