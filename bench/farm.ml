(* Farm scaling study: the same connection set served at 1/2/4/8 shards.
   Time is simulated cycles (makespan = busiest shard), so the speedup
   column measures the sharding itself and is exactly reproducible on
   any host.  The determinism contract is checked right here: merged
   detections and syscalls must not move as the shard count changes. *)

module J = Telemetry.Json
module F = Danguard_farm.Farm
module Scheduler = Danguard_farm.Scheduler

let shard_counts = [ 1; 2; 4; 8 ]
let seed = 0x5eed
let probe_every = 8

let run ~smoke () =
  print_endline "\n== Farm scaling (domain-sharded ghttpd, simulated cycles) ==";
  let connections = if smoke then 32 else 96 in
  let results =
    List.map
      (fun shards ->
        F.run_server ~policy:Scheduler.Round_robin ~seed ~probe_every
          ~config:Runtime.Scheme_spec.ours ~shards ~connections
          Workload.Servers.ghttpd)
      shard_counts
  in
  let base = List.hd results in
  Printf.printf "  %-7s %14s %12s %8s %11s %9s %12s\n" "shards" "makespan"
    "conn/Mcyc" "speedup" "detections" "syscalls" "p99 cycles";
  let rows =
    List.map
      (fun (r : F.result) ->
        let speedup = base.F.makespan_cycles /. r.F.makespan_cycles in
        Printf.printf "  %-7d %14.0f %12.3f %8.2fx %11d %9d %12.0f\n"
          r.F.shards r.F.makespan_cycles r.F.throughput speedup
          r.F.totals.F.detections r.F.totals.F.syscalls
          r.F.latency.Harness.Latency.q99;
        J.Obj
          [
            ("shards", J.Int r.F.shards);
            ("makespan_cycles", J.Float r.F.makespan_cycles);
            ("throughput_conn_per_mcycle", J.Float r.F.throughput);
            ("speedup", J.Float speedup);
            ("connections", J.Int r.F.totals.F.connections);
            ("detections", J.Int r.F.totals.F.detections);
            ("syscalls", J.Int r.F.totals.F.syscalls);
            ("latency_p50", J.Float r.F.latency.Harness.Latency.q50);
            ("latency_p99", J.Float r.F.latency.Harness.Latency.q99);
            ( "shadow_va_pages_used",
              J.Int
                (int_of_float
                   (Telemetry.Metrics.gauge_value
                      (Telemetry.Metrics.gauge r.F.registry
                         "shadow.va_pages_used"))) );
          ])
      results
  in
  (* The same farm under the epoch-batched scheme, kept as a separate
     row list: detections must match the eager rows above connection
     for connection, while protection batching cuts the syscall totals
     — the validator pins both. *)
  print_endline "  -- epoch-batched scheme (shadow-pool+epoch) --";
  let epoch_rows =
    List.map
      (fun shards ->
        let r =
          F.run_server ~policy:Scheduler.Round_robin ~seed ~probe_every
            ~config:Runtime.Scheme_spec.ours_epoch ~shards ~connections
            Workload.Servers.ghttpd
        in
        Printf.printf "  %-7d %14.0f %12.3f %8s %11d %9d %12.0f\n" r.F.shards
          r.F.makespan_cycles r.F.throughput "-" r.F.totals.F.detections
          r.F.totals.F.syscalls r.F.latency.Harness.Latency.q99;
        J.Obj
          [
            ("shards", J.Int r.F.shards);
            ("makespan_cycles", J.Float r.F.makespan_cycles);
            ("throughput_conn_per_mcycle", J.Float r.F.throughput);
            ("connections", J.Int r.F.totals.F.connections);
            ("detections", J.Int r.F.totals.F.detections);
            ("syscalls", J.Int r.F.totals.F.syscalls);
            ("latency_p50", J.Float r.F.latency.Harness.Latency.q50);
            ("latency_p99", J.Float r.F.latency.Harness.Latency.q99);
          ])
      shard_counts
  in
  J.Obj
    [
      ("server", J.String "ghttpd");
      ("config", J.String "our-approach");
      ("connections", J.Int connections);
      ("probe_every", J.Int probe_every);
      ("seed", J.Int seed);
      ("rows", J.List rows);
      ("epoch_rows", J.List epoch_rows);
    ]
