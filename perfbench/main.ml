(* The repository benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   --trace 0 measures the end-to-end metrics with no tracing: rounds of
   the workload repeat for S seconds on the same seeded inputs, and
   every round's simulated outcome must be identical.  --trace 1 runs
   untraced rounds for half of S, then up to [traced_rounds] rounds
   with every layer wrapped in spans, and reports the per-layer
   metrics.
   Output checks run on every round; any failure makes the result
   incorrect and the exit code 1.  The last line of standard output is
   the JSON result. *)

open Common

type workload = {
  name : string;
  server : bool;  (* host latency is per connection, not per round *)
  buffers : int;  (* span buffers a traced round writes to *)
  runs_per_round : int;
      (* simulated runs in a round: one farm run, one server lifetime, or
         several kernel runs; per-layer counts are per run *)
  setup_once : seed:int -> unit;
  round : seed:int -> traces:Span.buf list -> round;
  native_cycles : seed:int -> float;
}

let shards = min 2 (Domain.recommended_domain_count ())

let olden name k =
  {
    name;
    server = false;
    buffers = 1;
    runs_per_round = k.W_olden.runs_per_round;
    setup_once = (fun ~seed:_ -> W_olden.setup_once k);
    round = (fun ~seed ~traces -> W_olden.round k ~seed ~trace:(List.nth_opt traces 0));
    native_cycles = W_olden.native_cycles k;
  }

let workloads =
  [
    {
      name = "farm-ghttpd";
      server = true;
      buffers = shards;
      runs_per_round = 1;
      setup_once =
        (fun ~seed ->
          ignore (Danguard_farm.Scheduler.create ~policy:Round_robin ~seed ~shards
                    ~connections:W_farm.connections : Danguard_farm.Scheduler.t);
          ignore (Runtime.Scheme_spec.build ours
                    (Vmm.Machine.create ~cost:(cost_of ours) ()) : Runtime.Scheme.t));
      round = (fun ~seed ~traces -> W_farm.round ~shards ~seed ~traces);
      native_cycles = (fun ~seed -> W_farm.native_cycles ~seed);
    };
    {
      name = "longlived-ghttpd";
      server = true;
      buffers = 1;
      runs_per_round = 1;
      setup_once = (fun ~seed -> W_longlived.setup_once ~seed);
      round = (fun ~seed ~traces -> W_longlived.round ~seed ~trace:(List.nth_opt traces 0));
      native_cycles = (fun ~seed -> W_longlived.native_cycles ~seed);
    };
    olden "olden-health" W_olden.health;
    olden "olden-em3d" W_olden.em3d;
  ]

(* ---- measurement loops ---- *)

let secs ns = float_of_int ns /. 1e9

(* Set-up is timed [setup_repeats] times before every untraced round,
   so its samples spread over the whole run. *)
let setup_repeats = 5

let setup_seconds w ~seed =
  List.init setup_repeats (fun _ ->
      let t0 = Span.now () in
      w.setup_once ~seed;
      secs (Span.now () - t0))

type pass = {
  rounds : round list;
  setups : float list;  (* set-up times, seconds *)
  minor_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
}

(* Rounds until [budget] seconds have gone (at least [min_rounds]), or
   exactly [count] rounds.  A traced pass gives every round fresh span
   buffers and returns them all. *)
let run_pass w ~seed ?count ?(budget = 0.) ?(min_rounds = 3) ~trace () =
  let t0 = Span.now () in
  let bufs = ref [] and setups = ref [] in
  let minor_words = ref 0. and major_words = ref 0. in
  let minor_gcs = ref 0 and major_gcs = ref 0 in
  let rec loop acc n =
    let enough =
      match count with
      | Some c -> n >= c
      | None -> n >= min_rounds && secs (Span.now () - t0) >= budget
    in
    if enough then List.rev acc
    else begin
      let fresh = if trace then List.init w.buffers (fun _ -> Span.create ()) else [] in
      List.iter (fun b -> Span.set_unit b n) fresh;
      bufs := fresh @ !bufs;
      if not trace then setups := setup_seconds w ~seed @ !setups;
      (* Every round starts from a collected heap, so one round's garbage
         does not land in the next round's time or memory peak. *)
      Gc.full_major ();
      let g0 = Gc.quick_stat () in
      let r = w.round ~seed ~traces:fresh in
      let g1 = Gc.quick_stat () in
      minor_words := !minor_words +. g1.minor_words -. g0.minor_words;
      major_words := !major_words +. g1.major_words -. g0.major_words;
      minor_gcs := !minor_gcs + g1.minor_collections - g0.minor_collections;
      major_gcs := !major_gcs + g1.major_collections - g0.major_collections;
      loop (r :: acc) (n + 1)
    end
  in
  let rounds = loop [] 0 in
  ( {
      rounds;
      setups = !setups;
      minor_words = !minor_words;
      major_words = !major_words;
      minor_gcs = !minor_gcs;
      major_gcs = !major_gcs;
    },
    !bufs )

(* ---- checks ---- *)

let failures_of pass ~reference =
  List.concat
    (List.mapi
       (fun i r ->
         List.map (Printf.sprintf "round %d: %s" i) r.failures
         @
         if r.sim <> reference then
           [ Printf.sprintf "round %d: simulated outcome differs from round 0" i ]
         else [])
       pass.rounds)

(* Every probe must fault, and nothing else may. *)
let fault_check sim =
  if sim.stats.Vmm.Stats.faults <> sim.probes then
    [ Printf.sprintf "%d faults for %d dangling probes" sim.stats.Vmm.Stats.faults sim.probes ]
  else []

(* ---- metrics ---- *)

let kind_of w = if w.server then "connection" else "kernel run"

(* Host time on a shared machine swings with load from outside: on the
   2-core reference box identical rounds ran up to 1.5x faster for
   seconds at a time.  So host figures are taken per round and a run
   reports the level its rounds sustain three times out of four: the
   lower quartile of round throughput and the upper quartile of each
   round's latency percentile.  Over ten runs these moved least of the
   median, mean, best and pooled figures. *)
let sustained ~slow values =
  percentile (sorted_floats (Array.of_list values)) (if slow then 0.75 else 0.25)

let round_percentile r p =
  let a = Array.copy r.host_lat_ns in
  Array.sort compare a;
  float_of_int (percentile a p)

let per_op a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fdiv a b = if b = 0. then 0. else a /. b

type metric = { name : string; value : float; unit : string; samples : int; note : string }

let m ?(samples = 1) ?(note = "") name unit value = { name; value; unit; samples; note }

let end_to_end w ~pass ~native ~sim =
  let rounds = List.length pass.rounds in
  let per_round = Array.length (List.hd pass.rounds).host_lat_ns in
  let lat p =
    m (Printf.sprintf "host_latency_p%.0f_us" (p *. 100.)) "us"
      (sustained ~slow:true (List.map (fun r -> round_percentile r p /. 1e3) pass.rounds))
      ~samples:per_round
      ~note:(Printf.sprintf "host time per %s, per round; upper quartile of %d rounds"
               (kind_of w) rounds)
  in
  let conns = sim.connections * rounds in
  [
    m "setup_s" "s" (median_float (Array.of_list pass.setups)) ~samples:(List.length pass.setups)
      ~note:(Printf.sprintf "median set-up, %d before each round" setup_repeats);
    m "host_throughput" "1/s"
      (sustained ~slow:false
         (List.map (fun r -> float_of_int r.ops /. secs r.wall_ns) pass.rounds))
      ~samples:rounds
      ~note:((if w.server then "connections" else "simulated loads+stores+allocs+frees")
             ^ " per host second; lower quartile of rounds");
    lat 0.5;
    lat 0.99;
    m "sim_overhead_x" "x" (sim.cycles /. native) ~note:"simulated cycles, ours / native";
    m "sim_latency_p50_kcycles" "kcycles" sim.conn_kcycles_p50 ~samples:conns
      ~note:("simulated kcycles per " ^ kind_of w);
    m "sim_latency_p99_kcycles" "kcycles" sim.conn_kcycles_p99 ~samples:conns
      ~note:("simulated kcycles per " ^ kind_of w);
    m "sim_va_pages_peak" "pages" (float_of_int sim.va_pages_peak) ~note:"shadow VA high-water mark";
    m "sim_phys_pages_peak" "pages" (float_of_int sim.phys_pages_peak)
      ~note:"physical frames high-water mark";
  ]

let per_layer w ~pass ~traced ~bufs ~sim =
  let spans, aggs = Span.summarise bufs in
  let rounds = List.length traced.rounds in
  let rf = float_of_int (rounds * w.runs_per_round) in
  let mean ?(self = true) ids scale =
    let calls = List.fold_left (fun a i -> a + spans.(i).Span.calls) 0 ids in
    let ns =
      List.fold_left
        (fun a i -> a + if self then spans.(i).Span.self_ns else spans.(i).Span.total_ns)
        0 ids
    in
    fdiv (float_of_int ns) (float_of_int calls) /. scale
  in
  let calls ids =
    float_of_int (List.fold_left (fun a i -> a + spans.(i).Span.calls) 0 ids) /. rf
  in
  let agg k =
    let a = aggs.(k) in
    (fdiv (float_of_int a.Span.total_ns) (float_of_int a.Span.calls), float_of_int a.Span.calls /. rf)
  in
  let load_ns, loads = agg Span.load and store_ns, stores = agg Span.store in
  let s = sim.stats in
  let heap_ops = Vmm.Stats.heap_ops s in
  let accesses = s.Vmm.Stats.loads + s.Vmm.Stats.stores in
  let ops = List.fold_left (fun a r -> a + r.ops) 0 pass.rounds in
  let urounds = float_of_int (List.length pass.rounds * w.runs_per_round) in
  let gc_spans = [ Span.after_free_gc; Span.endurance_tick_gc ] in
  let gc_ns =
    float_of_int (List.fold_left (fun a i -> a + spans.(i).Span.total_ns) 0 gc_spans)
  in
  let median_wall p =
    median_float (Array.of_list (List.map (fun r -> float_of_int r.wall_ns) p.rounds))
  in
  let busy = List.map (fun r -> r.shard_busy_ns) pass.rounds in
  let skew =
    List.map
      (fun b ->
        if Array.length b = 0 then 0.
        else
          let mx = Array.fold_left max 0 b and sum = Array.fold_left ( + ) 0 b in
          float_of_int mx /. (float_of_int sum /. float_of_int (Array.length b)))
      busy
  in
  let median_of l = if l = [] then 0. else median_float (Array.of_list l) in
  [
    m "vmm.machine_create_us" "us" (mean [ Span.machine_create ] 1e3);
    m "runtime.scheme_build_us" "us" (mean [ Span.scheme_build ] 1e3);
    m "ocaml_gc.minor_words_per_op" "words/op" (fdiv pass.minor_words (float_of_int ops));
    m "ocaml_gc.major_words_per_op" "words/op" (fdiv pass.major_words (float_of_int ops));
    m "ocaml_gc.minor_collections" "count/run" (float_of_int pass.minor_gcs /. urounds);
    m "ocaml_gc.major_collections" "count/run" (float_of_int pass.major_gcs /. urounds);
    m "farm.overhead_ms" "ms"
      (median_of (List.map (fun r -> float_of_int r.farm_overhead_ns /. 1e6) pass.rounds));
    m "farm.shard_busy_skew" "x" (median_of skew);
    m "runtime.malloc_us" "us" (mean [ Span.malloc ] 1e3);
    m "runtime.malloc_calls" "count/run" (calls [ Span.malloc ]);
    m "runtime.free_us" "us" (mean [ Span.free ] 1e3);
    m "runtime.free_calls" "count/run" (calls [ Span.free ]);
    m "runtime.load_ns" "ns" load_ns;
    m "runtime.load_calls" "count/run" loads;
    m "runtime.store_ns" "ns" store_ns;
    m "runtime.store_calls" "count/run" stores;
    m "runtime.pool_create_us" "us" (mean [ Span.pool_create ] 1e3);
    m "runtime.pool_create_calls" "count/run" (calls [ Span.pool_create ]);
    m "runtime.pool_destroy_ms" "ms" (mean [ Span.pool_destroy ] 1e6);
    m "runtime.pool_destroy_calls" "count/run" (calls [ Span.pool_destroy ]);
    m "workload.self_us" "us" (mean [ Span.handler ] 1e3);
    m "shadow.gc_after_free_us" "us"
      (mean ~self:false [ Span.after_free; Span.after_free_gc ] 1e3);
    m "shadow.gc_ms_per_run" "ms" (fdiv gc_ns (float_of_int (sim.gc_runs * rounds)) /. 1e6);
    m "shadow.gc_runs" "count/run" (float_of_int sim.gc_runs);
    m "shadow.gc_scanned_words" "count/run" (float_of_int sim.gc_scanned_words);
    m "shadow.gc_ns_per_scanned_word" "ns"
      (fdiv gc_ns (float_of_int (sim.gc_scanned_words * rounds)));
    m "shadow.gc_reclaimed_pages" "count/run" (float_of_int sim.gc_reclaimed_pages);
    m "shadow.gc_pinned_ranges" "count" (float_of_int sim.gc_pinned_max);
    m "shadow.gc_reclaim_yield" "ratio"
      (per_op sim.gc_reclaimed_pages sim.gc_offered_pages);
    m "runtime.endurance_tick_us" "us"
      (mean ~self:false [ Span.endurance_tick; Span.endurance_tick_gc ] 1e3);
    m "shadow.protection_syscalls_per_op" "count/op"
      (Option.value (Vmm.Stats.syscalls_per_op s) ~default:0.);
    m "vmm.syscalls_mremap" "count/op" (per_op s.syscalls_mremap heap_ops);
    m "vmm.syscalls_mprotect" "count/op" (per_op s.syscalls_mprotect heap_ops);
    m "vmm.syscalls_munmap" "count/op" (per_op s.syscalls_munmap heap_ops);
    m "vmm.syscalls_mmap" "count/op" (per_op s.syscalls_mmap heap_ops);
    m "vmm.tlb_shootdown_pages" "count/op" (per_op s.tlb_shootdown_pages heap_ops);
    m "vmm.tlb_miss_rate" "ratio" (per_op s.tlb_misses (s.tlb_hits + s.tlb_misses));
    m "vmm.page_table_walks_per_access" "ratio" (per_op sim.walks accesses);
    m "vmm.frame_lookups_per_access" "ratio" (per_op sim.frame_lookups accesses);
    m "vmm.pages_mapped" "count/run" (float_of_int s.pages_mapped);
    m "vmm.faults" "count/run" (float_of_int s.faults);
  ]
  @ List.map
      (fun (k, v) -> m ("vmm.cycles_share." ^ k) "ratio" v)
      (Ledger.shares sim.ledger)
  @ [
      m "fleet.reports" "count/run" (float_of_int sim.fleet_reports);
      m "bench.trace_overhead_frac" "ratio" ((median_wall traced /. median_wall pass) -. 1.);
    ]

(* ---- output ---- *)

let json_string s = Printf.sprintf "%S" s

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_num x.value) (json_string x.unit))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let report (w : workload) ~seed ~trace metrics =
  Printf.printf "# perfbench %s seed=%d trace=%d nproc=%d shards=%d ocaml=%s OCAMLRUNPARAM=%s\n"
    w.name seed (if trace then 1 else 0)
    (Domain.recommended_domain_count ())
    w.buffers
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"(unset)");
  List.iter
    (fun x ->
      Printf.printf "#   %-36s %16.6g %-11s n=%-7d %s\n" x.name x.value x.unit x.samples x.note)
    metrics

(* Spans are kept in memory until exit, so the traced pass is capped. *)
let traced_rounds = 4

let main ~workload ~seed ~seconds ~trace ~spans =
  let w =
    match List.find_opt (fun (w : workload) -> w.name = workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (know: %s)\n" workload
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      exit 2
  in
  let budget = if trace then 0.5 *. seconds else seconds in
  let pass, _ = run_pass w ~seed ~budget ~trace:false () in
  let reference = (List.hd pass.rounds).sim in
  let traced, bufs =
    if trace then
      run_pass w ~seed ~count:(min traced_rounds (List.length pass.rounds)) ~trace:true ()
    else ({ pass with rounds = []; setups = [] }, [])
  in
  let errors =
    failures_of pass ~reference
    @ failures_of traced ~reference
    @ fault_check reference
  in
  let native = w.native_cycles ~seed in
  let attempted = List.fold_left (fun a r -> a + r.ops) 0 pass.rounds in
  let failed = List.length errors in
  let metrics =
    if trace then per_layer w ~pass ~traced ~bufs ~sim:reference
    else end_to_end w ~pass ~native ~sim:reference
  in
  report w ~seed ~trace
    (metrics
     @ [ m "failed_frac" "ratio" (per_op failed attempted) ~samples:attempted
           ~note:"failed checks / attempted operations" ]);
  List.iter (fun e -> Printf.printf "# CHECK FAILED: %s\n" e) errors;
  Printf.printf "# sim fingerprint %s\n"
    (Digest.to_hex (Digest.string (Marshal.to_string reference [])));
  Printf.printf "# vmm.stats %s\n"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Vmm.Stats.field_values reference.stats)));
  (match spans with
   | Some path when trace -> Span.write path bufs
   | _ -> ());
  print_result ~correct:(errors = []) ~attempted ~failed metrics;
  exit (if errors = [] then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.String (fun s -> spans := Some s), "FILE where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~spans:!spans
