(* farm-ghttpd: ghttpd connections through [Danguard_farm.Farm.run],
   every connection a fresh machine and scheme, round-robin over
   [min 2 nproc] shard domains, a dangling probe every 64th connection.
   Closed loop: each shard starts its next connection when the last one
   ends.  The seed is the farm's shuffle, which decides where each
   shard meets the probed connections. *)

open Common
module Farm = Danguard_farm.Farm

let connections = 1024
let probe_every = 64
let probed = (connections + probe_every - 1) / probe_every

(* Per-shard bookkeeping, touched only by the shard's own domain. *)
type shard = {
  trace : Span.buf option;
  mutable first_start : int;
  mutable start : int;  (* host ns the connection in flight began *)
  mutable handler_end : int;
  mutable current : Runtime.Scheme.t option;  (* unwrapped *)
  mutable lat : int list;
  mutable kcycles : float list;
  mutable cycles : float;
  mutable va_peak : int;
  mutable phys_peak : int;
  mutable walks : int;
  mutable lookups : int;
  mutable ledger : Ledger.t;
  mutable errors : string list;
}

let new_shard trace =
  {
    trace;
    first_start = -1;
    start = -1;
    handler_end = -1;
    current = None;
    lat = [];
    kcycles = [];
    cycles = 0.;
    va_peak = 0;
    phys_peak = 0;
    walks = 0;
    lookups = 0;
    ledger = Ledger.zero;
    errors = [];
  }

let key : shard option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Account for the connection that just ended on this shard. *)
let harvest sh =
  match sh.current with
  | None -> ()
  | Some s ->
    let m = s.Runtime.Scheme.machine in
    let c = Vmm.Machine.cycles m in
    sh.cycles <- sh.cycles +. c;
    sh.kcycles <- (c /. 1000.) :: sh.kcycles;
    sh.va_peak <- max sh.va_peak (va_pages m);
    sh.phys_peak <- max sh.phys_peak (phys_pages m);
    sh.walks <- sh.walks + walks m;
    sh.lookups <- sh.lookups + lookups m;
    let l, err = Ledger.of_machine ~gc_instructions:0 m in
    sh.ledger <- Ledger.add sh.ledger l;
    Option.iter (fun e -> sh.errors <- e :: sh.errors) err;
    sh.current <- None

let make_scheme spec shards ~shard ~trace () =
  let sh = shards.(shard) in
  Domain.DLS.set key (Some sh);
  let t = Span.now () in
  if sh.start >= 0 then sh.lat <- (t - sh.start) :: sh.lat
  else sh.first_start <- t;
  sh.start <- t;
  harvest sh;
  let build () =
    let m =
      Wrap.span sh.trace Span.machine_create (fun () ->
          Vmm.Machine.create ~cost:(cost_of spec) ~trace ())
    in
    Wrap.span sh.trace Span.scheme_build (fun () -> Runtime.Scheme_spec.build spec m)
  in
  match sh.trace with
  | None ->
    let s = build () in
    sh.current <- Some s;
    s
  | Some b ->
    if b.Span.depth > 0 then Span.close_span b;
    let (_ : int) = Span.open_span b Span.connection in
    let s = Span.span b Span.make_scheme build in
    sh.current <- Some s;
    Wrap.scheme b s

let handler conn scheme =
  match Domain.DLS.get key with
  | None -> invalid_arg "farm handler ran before make_scheme on its domain"
  | Some sh ->
    (match sh.trace with
     | None -> Workload.Servers.ghttpd.Workload.Spec.handler conn scheme
     | Some b ->
       Span.set_unit b conn;
       Span.span b Span.handler (fun () ->
           Workload.Servers.ghttpd.Workload.Spec.handler conn scheme));
    sh.handler_end <- Span.now ()

let serve ~spec ~shards ~seed ~traces =
  let states = Array.init shards (fun i -> new_shard (List.nth_opt traces i)) in
  let t0 = Span.now () in
  let r =
    Farm.run ~policy:Danguard_farm.Scheduler.Round_robin ~seed ~probe_every
      ~make_scheme:(make_scheme spec states) ~handler ~shards ~connections ()
  in
  let wall = Span.now () - t0 in
  Array.iter
    (fun sh ->
      harvest sh;
      Option.iter (fun b -> if b.Span.depth > 0 then Span.close_span b) sh.trace)
    states;
  (r, wall, states)

let busy_cycles r =
  List.fold_left (fun acc (s : Farm.shard_report) -> acc +. s.Farm.busy_cycles) 0.
    r.Farm.per_shard

let native_cycles ~seed =
  let r, _, _ = serve ~spec:native ~shards:1 ~seed ~traces:[] in
  busy_cycles r

let round ~shards ~seed ~traces =
  let r, wall, states = serve ~spec:ours ~shards ~seed ~traces in
  let fold f init = Array.fold_left f init states in
  let errors = ref (fold (fun acc sh -> sh.errors @ acc) []) in
  let check ok msg = if not ok then errors := msg :: !errors in
  let totals = r.Farm.totals in
  check (totals.Farm.connections = connections)
    (Printf.sprintf "farm served %d of %d connections" totals.Farm.connections connections);
  check (totals.Farm.detections = probed)
    (Printf.sprintf "farm detected %d dangling uses, %d were probed" totals.Farm.detections
       probed);
  check (r.Farm.crashes.Fleet.Crash.total_reports = probed)
    (Printf.sprintf "fleet recorded %d reports, %d were probed"
       r.Farm.crashes.Fleet.Crash.total_reports probed);
  let cycles = fold (fun acc sh -> acc +. sh.cycles) 0. in
  check (cycles = busy_cycles r)
    (Printf.sprintf "harvested %.17g cycles, farm reports %.17g" cycles (busy_cycles r));
  let va_peak = fold (fun acc sh -> max acc sh.va_peak) 0 in
  check (va_peak = totals.Farm.max_va_bytes / Vmm.Addr.page_size)
    "farm's VA peak differs from the harvested one";
  let kcycles = sorted_floats (Array.of_list (fold (fun acc sh -> sh.kcycles @ acc) [])) in
  let busy = Array.map (fun sh -> sh.handler_end - sh.first_start) states in
  {
    wall_ns = wall;
    ops = connections;
    host_lat_ns = Array.of_list (fold (fun acc sh -> sh.lat @ acc) []);
    sim =
      {
        sim_zero with
        cycles;
        stats = totals.Farm.stats;
        ledger = fold (fun acc sh -> Ledger.add acc sh.ledger) Ledger.zero;
        conn_kcycles_p50 = percentile kcycles 0.5;
        conn_kcycles_p99 = percentile kcycles 0.99;
        connections;
        va_pages_peak = va_peak;
        phys_pages_peak = fold (fun acc sh -> max acc sh.phys_peak) 0;
        walks = fold (fun acc sh -> acc + sh.walks) 0;
        frame_lookups = fold (fun acc sh -> acc + sh.lookups) 0;
        fleet_reports = r.Farm.crashes.Fleet.Crash.total_reports;
        probes = totals.Farm.detections;
      };
    failures = List.rev !errors;
    farm_overhead_ns = wall - Array.fold_left max 0 busy;
    shard_busy_ns = busy;
  }
