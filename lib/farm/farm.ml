module Metrics = Telemetry.Metrics

type totals = {
  connections : int;
  detections : int;
  syscalls : int;
  max_va_bytes : int;
  stats : Vmm.Stats.snapshot;
}

type shard_report = {
  shard : int;
  served : int;
  busy_cycles : float;
  shard_detections : int;
  shard_crashes : int;
}

type result = {
  shards : int;
  policy : Scheduler.policy;
  seed : int;
  totals : totals;
  makespan_cycles : float;
  throughput : float;
  latency : Harness.Latency.quantiles;
  per_shard : shard_report list;
  registry : Metrics.t;
  crashes : Fleet.Crash.fleet_report;
  traces : (int * Telemetry.Event.t list) list;
}

(* Which injection site a probed connection exercises.  Derived from the
   probe ordinal alone, so the site multiset over any connection range
   is independent of how connections land on shards; the geometric
   split (half the probes at site 0, a quarter at site 1, ...) gives
   the fleet dashboard a non-trivial ranking to sort. *)
let probe_site ~probe_sites ~probe_every conn =
  let q = conn / probe_every in
  let rec go i q =
    if i >= probe_sites - 1 || q land 1 = 1 then i else go (i + 1) (q asr 1)
  in
  go 0 q

(* A deterministic dangling-use probe appended to every [probe_every]-th
   connection.  With one probe site this is the original byte-stable
   malloc/store/free/load-after-free sequence at site "farm:probe";
   with more sites each probed connection picks a site and the site
   picks the bug flavour (use-after-free read / write / double free).
   Detecting schemes raise (or, wrapped in [Schemes.recoverable],
   report and continue); non-detecting schemes always get the silent
   dangling read — the write and double-free flavours would corrupt a
   real freelist rather than fault, which is the paper's point but not
   a survivable farm experiment. *)
let probed_handler ~probe_every ~probe_sites handler conn
    (scheme : Runtime.Scheme.t) =
  handler conn scheme;
  if probe_every > 0 && conn mod probe_every = 0 then
    if probe_sites <= 1 then begin
      let a = scheme.Runtime.Scheme.malloc ~site:"farm:probe" 64 in
      scheme.Runtime.Scheme.store a ~width:8 (conn + 1);
      scheme.Runtime.Scheme.free ~site:"farm:probe" a;
      ignore (scheme.Runtime.Scheme.load a ~width:8)
    end
    else begin
      let site = probe_site ~probe_sites ~probe_every conn in
      let alloc_site = Printf.sprintf "farm.c:1%02d" site in
      let free_site = Printf.sprintf "farm.c:2%02d" site in
      let a = scheme.Runtime.Scheme.malloc ~site:alloc_site 64 in
      scheme.Runtime.Scheme.store a ~width:8 (conn + 1);
      if scheme.Runtime.Scheme.guarantees_detection then
        match site mod 3 with
        | 0 ->
          scheme.Runtime.Scheme.free ~site:free_site a;
          ignore (scheme.Runtime.Scheme.load a ~width:8)
        | 1 ->
          scheme.Runtime.Scheme.free ~site:free_site a;
          scheme.Runtime.Scheme.store a ~width:8 0xdead
        | _ ->
          scheme.Runtime.Scheme.free ~site:free_site a;
          scheme.Runtime.Scheme.free ~site:free_site a
      else begin
        scheme.Runtime.Scheme.free ~site:free_site a;
        ignore (scheme.Runtime.Scheme.load a ~width:8)
      end
    end

type shard_outcome = {
  o_shard : int;
  o_served : int;
  o_busy : float;
  o_registry : Metrics.t;
  o_crashes : Fleet.Crash.sink;
  o_trace : Telemetry.Event.t list;
}

(* Everything a shard touches is shard-local: its own registry, its own
   machines (one per connection), its own crash sink and trace ring,
   its own scheduler cursor.  The only cross-domain traffic is the
   work-steal cursor (atomic) — no locks on the connection hot path. *)
let run_shard ~scheduler ~shard ~make_scheme ~handler ~recover ~trace_capacity =
  let registry = Metrics.create () in
  let connections = Metrics.counter registry "farm.connections" in
  let detections = Metrics.counter registry "farm.detections" in
  let max_va = Metrics.gauge registry "farm.max_va_bytes" in
  (* The endurance gauges, in pages: per-connection machines are
     short-lived here, so the farm view is the worst connection's VA
     footprint (merge keeps the max across shards).  Registering the
     reclaim/pin gauges up front keeps the exporter's gauge set stable
     whether or not a GC ever runs in this process. *)
  let shadow_va = Metrics.gauge registry "shadow.va_pages_used" in
  let (_ : Metrics.gauge) = Metrics.gauge registry "shadow.va_pages_reclaimed" in
  let (_ : Metrics.gauge) = Metrics.gauge registry "shadow.gc_pinned_ranges" in
  let latency =
    Metrics.histogram
      ~buckets_per_octave:Harness.Latency.buckets_per_octave registry
      "farm.latency_cycles"
  in
  let crash_sink = Fleet.Crash.create_sink () in
  let trace =
    if trace_capacity > 0 then Telemetry.Sink.create ~capacity:trace_capacity ()
    else Telemetry.Sink.disabled ()
  in
  (* The vmm.* counters, resolved when the first connection ends, so the
     registry's names and their order match a per-connection lookup. *)
  let vmm_totals = lazy (Vmm.Stats.create ~registry ()) in
  let busy = ref 0.0 in
  let served = ref 0 in
  (* The scheme serving the connection in flight, for crash attribution
     (its name and its machine's clock). *)
  let current : Runtime.Scheme.t option ref = ref None in
  let record_crash ~at_cycles report =
    match !current with
    | None -> ()
    | Some scheme ->
      Fleet.Crash.record crash_sink
        (Fleet.Crash.of_violation ~scheme:scheme.Runtime.Scheme.name ~shard
           ~at_cycles report)
  in
  (* Crash timestamps use the connection's own machine clock: it counts
     only that connection's work, so a report's [at_cycles] is the same
     wherever the connection is scheduled. *)
  let on_report report =
    let at =
      match !current with
      | Some s -> int_of_float (Vmm.Machine.cycles s.Runtime.Scheme.machine)
      | None -> 0
    in
    record_crash ~at_cycles:at report
  in
  let make_conn_scheme () =
    let scheme = make_scheme ~shard ~trace () in
    (* Each connection is a fresh machine whose clock restarts at 0;
       offsetting by the shard's accumulated busy cycles keeps the
       shard's trace lane monotone. *)
    let offset = !busy in
    let m = scheme.Runtime.Scheme.machine in
    Telemetry.Sink.set_clock trace (fun () -> offset +. Vmm.Machine.cycles m);
    let scheme =
      if recover then Runtime.Schemes.recoverable ~on_report scheme else scheme
    in
    current := Some scheme;
    scheme
  in
  let rec loop () =
    match Scheduler.next scheduler ~shard with
    | None -> ()
    | Some conn ->
      let r =
        Runtime.Process.run_connection ~make_scheme:make_conn_scheme
          ~handler:(handler conn)
      in
      (* In recoverable mode violations never unwind, so [detection]
         stays [None] and every report arrived via [on_report]; here we
         capture the abort-mode counterpart, stamped with the child's
         cycles at death. *)
      (match r.Runtime.Process.detection with
       | Some report ->
         record_crash ~at_cycles:(int_of_float r.Runtime.Process.cycles) report
       | None -> ());
      current := None;
      incr served;
      busy := !busy +. r.Runtime.Process.cycles;
      Metrics.incr connections;
      if r.Runtime.Process.detection <> None then Metrics.incr detections;
      Telemetry.Histogram.observe latency r.Runtime.Process.cycles;
      let va = float_of_int r.Runtime.Process.va_bytes in
      if va > Metrics.gauge_value max_va then Metrics.set_gauge max_va va;
      let va_pages =
        float_of_int (r.Runtime.Process.va_bytes / Vmm.Addr.page_size)
      in
      if va_pages > Metrics.gauge_value shadow_va then
        Metrics.set_gauge shadow_va va_pages;
      Vmm.Stats.add_snapshot (Lazy.force vmm_totals) r.Runtime.Process.stats;
      loop ()
  in
  loop ();
  {
    o_shard = shard;
    o_served = !served;
    o_busy = !busy;
    o_registry = registry;
    o_crashes = crash_sink;
    o_trace = Telemetry.Sink.events trace;
  }

let counter_value registry name =
  Metrics.counter_value (Metrics.counter registry name)

let run ?(policy = Scheduler.Round_robin) ?(seed = 0x5eed) ?(probe_every = 0)
    ?(probe_sites = 1) ?(recover = false) ?(trace_capacity = 0) ~make_scheme
    ~handler ~shards ~connections () =
  let scheduler = Scheduler.create ~policy ~seed ~shards ~connections in
  let handler = probed_handler ~probe_every ~probe_sites handler in
  let run_shard shard =
    run_shard ~scheduler ~shard ~make_scheme ~handler ~recover ~trace_capacity
  in
  let outcomes =
    if shards = 1 then [| run_shard 0 |]
    else
      Array.init shards (fun shard -> Domain.spawn (fun () -> run_shard shard))
      |> Array.map Domain.join
  in
  let registry = Metrics.create () in
  Array.iter (fun o -> Metrics.merge ~into:registry o.o_registry) outcomes;
  let crashes =
    Fleet.Crash.merge
      (Array.to_list (Array.map (fun o -> o.o_crashes) outcomes))
  in
  Fleet.Crash.register_metrics registry crashes;
  let traces =
    if trace_capacity > 0 then
      Array.to_list (Array.map (fun o -> (o.o_shard, o.o_trace)) outcomes)
    else []
  in
  let stats = Vmm.Stats.snapshot (Vmm.Stats.create ~registry ()) in
  let totals =
    {
      connections = counter_value registry "farm.connections";
      detections = counter_value registry "farm.detections";
      syscalls = Vmm.Stats.total_syscalls stats;
      max_va_bytes =
        int_of_float (Metrics.gauge_value (Metrics.gauge registry "farm.max_va_bytes"));
      stats;
    }
  in
  (* The farm is one simulated parallel machine: its makespan is the
     busiest shard's simulated cycles, so throughput scales with shard
     count deterministically (no wall-clock, no host-core dependence). *)
  let makespan =
    Array.fold_left (fun acc o -> Float.max acc o.o_busy) 0.0 outcomes
  in
  let throughput =
    if makespan > 0.0 then float_of_int totals.connections /. (makespan /. 1e6)
    else 0.0
  in
  let latency =
    Harness.Latency.quantiles_of_histogram
      (Metrics.histogram registry "farm.latency_cycles")
  in
  let per_shard =
    Array.to_list
      (Array.map
         (fun o ->
           {
             shard = o.o_shard;
             served = o.o_served;
             busy_cycles = o.o_busy;
             shard_detections = counter_value o.o_registry "farm.detections";
             shard_crashes = Fleet.Crash.sink_count o.o_crashes;
           })
         outcomes)
  in
  {
    shards;
    policy;
    seed;
    totals;
    makespan_cycles = makespan;
    throughput;
    latency;
    per_shard;
    registry;
    crashes;
    traces;
  }

let run_server ?policy ?seed ?probe_every ?probe_sites ?recover ?trace_capacity
    ?(config = Runtime.Scheme_spec.ours) ?connections ~shards
    (server : Workload.Spec.server) =
  let connections =
    Option.value connections ~default:server.Workload.Spec.s_default_connections
  in
  run ?policy ?seed ?probe_every ?probe_sites ?recover ?trace_capacity
    ~make_scheme:(fun ~shard:_ ~trace () ->
      Harness.Experiment.make_scheme config ~trace ())
    ~handler:server.Workload.Spec.handler ~shards ~connections ()
