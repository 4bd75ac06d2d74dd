(* olden-health and olden-em3d: one Olden kernel run per round on a
   fresh machine under the detector.

   The kernels' own PRNG seeds are fixed inside lib/workload (health
   11, em3d 7) and are left alone; the benchmark seed places the
   dangling probes.  health probes every [every]-th [pool_free]: the
   freed patient is loaded at once and the load must raise
   [Shadow.Report.Violation].  em3d never frees, so every [every]-th
   [pool_alloc] is followed by a malloc/free/load probe on the heap. *)

open Common

type kernel = {
  batch : Workload.Spec.batch;
  scale : int;
  every : int;
  on_free : bool;  (* probe frees (health) or allocations (em3d) *)
  runs_per_round : int;
}

let health =
  { batch = Workload.Olden_health.batch; scale = 40; every = 256; on_free = true;
    runs_per_round = 8 }
let em3d =
  { batch = Workload.Olden_em3d.batch; scale = 600; every = 512; on_free = false;
    runs_per_round = 8 }

type counts = { mutable calls : int; mutable probes : int; mutable errors : string list }

(* Load [a], which was just freed.  Only the detector must trap. *)
let dangling_load (s : Runtime.Scheme.t) detects counts a =
  match s.Runtime.Scheme.load a ~width:8 with
  | (_ : int) ->
    if detects then counts.errors <- Printf.sprintf "dangling load of 0x%x missed" a :: counts.errors
  | exception Shadow.Report.Violation _ -> counts.probes <- counts.probes + 1
  | exception Vmm.Fault.Trap _ ->
    counts.errors <- Printf.sprintf "dangling load of 0x%x: undiagnosed trap" a :: counts.errors

(* [s] with seeded probes attached to every pool it creates. *)
let probing k ~phase detects counts (s : Runtime.Scheme.t) =
  let due () =
    counts.calls <- counts.calls + 1;
    (counts.calls + phase) mod k.every = 0
  in
  let attach (p : Runtime.Scheme.pool_handle) =
    if k.on_free then
      {
        p with
        pool_free =
          (fun ?site a ->
            p.pool_free ?site a;
            if due () then dangling_load s detects counts a);
      }
    else
      {
        p with
        pool_alloc =
          (fun ?site n ->
            let a = p.pool_alloc ?site n in
            if due () then begin
              let q = s.Runtime.Scheme.malloc ~site:"bench:probe" 64 in
              s.Runtime.Scheme.store q ~width:8 1;
              s.Runtime.Scheme.free ~site:"bench:probe" q;
              dangling_load s detects counts q
            end;
            a);
      }
  in
  { s with pool_create = (fun ?elem_size () -> attach (s.pool_create ?elem_size ())) }

let machine spec k =
  Vmm.Machine.create
    ~cost:(Runtime.Scheme_spec.cost_profile spec
             ~pa_quality_gain:k.batch.Workload.Spec.pa_quality_gain)
    ()

let run spec k ~seed ~trace =
  let m = Wrap.span trace Span.machine_create (fun () -> machine spec k) in
  let built = Wrap.span trace Span.scheme_build (fun () -> Runtime.Scheme_spec.build spec m) in
  let counts = { calls = 0; probes = 0; errors = [] } in
  let s =
    probing k ~phase:(seed mod k.every) (Runtime.Scheme_spec.detects spec) counts
      (Wrap.maybe trace Wrap.scheme built)
  in
  (match
     Wrap.span trace Span.handler (fun () -> k.batch.Workload.Spec.run s ~scale:k.scale)
   with
   | () -> ()
   | exception e ->
     counts.errors <- ("exception: " ^ Printexc.to_string e) :: counts.errors);
  (m, counts)

let native_cycles k ~seed =
  let m, _ = run native k ~seed ~trace:None in
  Vmm.Machine.cycles m

(* A round is [runs_per_round] kernel runs, each on a fresh machine;
   their simulated outcomes must be identical. *)
let round k ~seed ~trace =
  let t0 = Span.now () in
  let runs =
    List.init k.runs_per_round (fun _ ->
        let t = Span.now () in
        let m, counts = run ours k ~seed ~trace in
        (Span.now () - t, m, counts))
  in
  let wall = Span.now () - t0 in
  let _, m, counts = List.hd runs in
  let stats = Vmm.Stats.snapshot m.Vmm.Machine.stats in
  let ledger, ledger_error = Ledger.of_machine ~gc_instructions:0 m in
  let errors =
    List.concat_map (fun (_, _, c) -> List.rev c.errors) runs
    @ Option.to_list ledger_error
    @ (if counts.probes = 0 then [ "no dangling probe was made" ] else [])
    @
    if
      List.exists
        (fun (_, m', _) -> Vmm.Stats.snapshot m'.Vmm.Machine.stats <> stats)
        runs
    then [ "kernel runs of one round disagree on their event counters" ]
    else []
  in
  {
    wall_ns = wall;
    ops = k.runs_per_round * (stats.loads + stats.stores + stats.alloc_ops + stats.free_ops);
    host_lat_ns = Array.of_list (List.map (fun (t, _, _) -> t) runs);
    sim =
      {
        sim_zero with
        cycles = Vmm.Machine.cycles m;
        stats;
        conn_kcycles_p50 = Vmm.Machine.cycles m /. 1000.;
        conn_kcycles_p99 = Vmm.Machine.cycles m /. 1000.;
        connections = 1;
        ledger;
        va_pages_peak = va_pages m;
        phys_pages_peak = phys_pages m;
        walks = walks m;
        frame_lookups = lookups m;
        probes = counts.probes;
      };
    failures = errors;
    farm_overhead_ns = 0;
    shard_busy_ns = [||];
  }

let setup_once k =
  let m = machine ours k in
  let (_ : Runtime.Scheme.t) = Runtime.Scheme_spec.build ours m in
  ()
