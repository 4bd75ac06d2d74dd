(* Tests for the telemetry subsystem: the ring buffer, log-bucketed
   histograms against a sorted-array oracle, histogram/registry merge
   semantics (associative, order-independent — the farm's join-time
   contract), the metrics registry backing Vmm.Stats, exporter
   well-formedness, and the event stream a traced machine produces. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---- Ring ---- *)

let test_ring_basic () =
  let r = Telemetry.Ring.create ~capacity:4 in
  check_int "empty" 0 (Telemetry.Ring.length r);
  Telemetry.Ring.push r 1;
  Telemetry.Ring.push r 2;
  check (Alcotest.list Alcotest.int) "in order" [ 1; 2 ]
    (Telemetry.Ring.to_list r);
  check_int "no drops yet" 0 (Telemetry.Ring.dropped r)

let test_ring_wraparound () =
  let r = Telemetry.Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Telemetry.Ring.push r i
  done;
  check_int "bounded" 4 (Telemetry.Ring.length r);
  check (Alcotest.list Alcotest.int) "keeps newest, oldest first"
    [ 7; 8; 9; 10 ]
    (Telemetry.Ring.to_list r);
  check_int "pushed" 10 (Telemetry.Ring.pushed r);
  check_int "dropped" 6 (Telemetry.Ring.dropped r);
  Telemetry.Ring.clear r;
  check_int "cleared" 0 (Telemetry.Ring.length r)

(* ---- Histogram vs. a sorted-array oracle ---- *)

let oracle_percentile values q =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (min (n - 1) (rank - 1))

let test_histogram_percentile_matches_oracle =
  QCheck.Test.make ~count:200 ~name:"histogram percentile ~= sorted array"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (float_range 0.001 1e9))
        (float_range 0.0 1.0))
    (fun (values, q) ->
      let h = Telemetry.Histogram.create () in
      List.iter (Telemetry.Histogram.observe h) values;
      let got = Telemetry.Histogram.percentile h q in
      let want = oracle_percentile values q in
      (* One bucket of quantization: representatives sit mid-bucket, so
         the answer is within one bucket ratio of the true order
         statistic (and clamped to the observed extrema). *)
      let ratio = Telemetry.Histogram.bucket_ratio h in
      got <= want *. ratio +. 1e-9 && got >= want /. ratio -. 1e-9)

let test_histogram_counts () =
  let h = Telemetry.Histogram.create () in
  check_int "empty count" 0 (Telemetry.Histogram.count h);
  List.iter (Telemetry.Histogram.observe h) [ 1.0; 10.0; 100.0; 0.0 ];
  check_int "count" 4 (Telemetry.Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 111.0 (Telemetry.Histogram.sum h);
  check (Alcotest.float 1e-9) "min" 0.0 (Telemetry.Histogram.min_value h);
  check (Alcotest.float 1e-9) "max" 100.0 (Telemetry.Histogram.max_value h);
  check (Alcotest.float 1e-9) "p0 is min" 0.0
    (Telemetry.Histogram.percentile h 0.0);
  check (Alcotest.float 1e-9) "p100 is max" 100.0
    (Telemetry.Histogram.percentile h 1.0)

(* ---- Merge semantics ---- *)

let hist_of values =
  let h = Telemetry.Histogram.create () in
  List.iter (Telemetry.Histogram.observe h) values;
  h

let check_hist_equal label a b =
  check_int (label ^ ": count") (Telemetry.Histogram.count a)
    (Telemetry.Histogram.count b);
  check (Alcotest.float 1e-6) (label ^ ": sum") (Telemetry.Histogram.sum a)
    (Telemetry.Histogram.sum b);
  check (Alcotest.float 1e-9) (label ^ ": min")
    (Telemetry.Histogram.min_value a)
    (Telemetry.Histogram.min_value b);
  check (Alcotest.float 1e-9) (label ^ ": max")
    (Telemetry.Histogram.max_value a)
    (Telemetry.Histogram.max_value b);
  List.iter
    (fun q ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "%s: p%.0f" label (q *. 100.))
        (Telemetry.Histogram.percentile a q)
        (Telemetry.Histogram.percentile b q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let test_histogram_merge_is_union =
  QCheck.Test.make ~count:100
    ~name:"histogram merge = histogram of concatenated samples"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 80) (float_range 0.0 1e6))
        (list_of_size Gen.(0 -- 80) (float_range 0.0 1e6)))
    (fun (xs, ys) ->
      let merged = Telemetry.Histogram.merge (hist_of xs) (hist_of ys) in
      let oracle = hist_of (xs @ ys) in
      check_hist_equal "merge" oracle merged;
      true)

let test_histogram_merge_order_independent =
  QCheck.Test.make ~count:100
    ~name:"histogram merge is associative and order-independent"
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 50) (float_range 0.0 1e6))
        (list_of_size Gen.(0 -- 50) (float_range 0.0 1e6))
        (list_of_size Gen.(0 -- 50) (float_range 0.0 1e6)))
    (fun (xs, ys, zs) ->
      let h () = (hist_of xs, hist_of ys, hist_of zs) in
      let a, b, c = h () in
      let left = Telemetry.Histogram.merge (Telemetry.Histogram.merge a b) c in
      let a, b, c = h () in
      let right = Telemetry.Histogram.merge a (Telemetry.Histogram.merge b c) in
      let a, b, c = h () in
      let reversed =
        Telemetry.Histogram.merge c (Telemetry.Histogram.merge b a)
      in
      check_hist_equal "assoc" left right;
      check_hist_equal "reorder" left reversed;
      true)

let test_histogram_merge_bpo_mismatch () =
  let a = Telemetry.Histogram.create ~buckets_per_octave:16 () in
  let b = Telemetry.Histogram.create ~buckets_per_octave:8 () in
  match Telemetry.Histogram.merge a b with
  | _ -> Alcotest.fail "bpo mismatch should raise"
  | exception Invalid_argument _ -> ()

let test_histogram_merge_into_empty () =
  (* Merging an empty histogram is the identity, in both directions. *)
  let a = hist_of [ 3.0; 5.0; 0.0 ] in
  let empty = Telemetry.Histogram.create () in
  check_hist_equal "empty right" a (Telemetry.Histogram.merge a empty);
  check_hist_equal "empty left" a (Telemetry.Histogram.merge empty a)

let registry_a () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.add (Telemetry.Metrics.counter m "reqs") 3;
  Telemetry.Metrics.set_gauge (Telemetry.Metrics.gauge m "depth") 2.0;
  List.iter
    (Telemetry.Histogram.observe (Telemetry.Metrics.histogram m "lat"))
    [ 1.0; 8.0 ];
  m

let registry_b () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.add (Telemetry.Metrics.counter m "reqs") 4;
  Telemetry.Metrics.add (Telemetry.Metrics.counter m "errors") 2;
  Telemetry.Metrics.set_gauge (Telemetry.Metrics.gauge m "depth") 5.0;
  List.iter
    (Telemetry.Histogram.observe (Telemetry.Metrics.histogram m "lat"))
    [ 2.0; 64.0; 100.0 ];
  m

let test_metrics_merge () =
  let into = registry_a () in
  Telemetry.Metrics.merge ~into (registry_b ());
  check_int "counters add" 7
    (Telemetry.Metrics.counter_value (Telemetry.Metrics.counter into "reqs"));
  check_int "missing counters appear" 2
    (Telemetry.Metrics.counter_value (Telemetry.Metrics.counter into "errors"));
  check (Alcotest.float 1e-9) "gauges take the max" 5.0
    (Telemetry.Metrics.gauge_value (Telemetry.Metrics.gauge into "depth"));
  check_hist_equal "histograms merge"
    (hist_of [ 1.0; 8.0; 2.0; 64.0; 100.0 ])
    (Telemetry.Metrics.histogram into "lat")

let test_metrics_merge_order_independent () =
  (* a<-b and b<-a hold the same values under every shared name. *)
  let ab = registry_a () in
  Telemetry.Metrics.merge ~into:ab (registry_b ());
  let ba = registry_b () in
  Telemetry.Metrics.merge ~into:ba (registry_a ());
  List.iter
    (fun name ->
      check_int ("counter " ^ name)
        (Telemetry.Metrics.counter_value (Telemetry.Metrics.counter ab name))
        (Telemetry.Metrics.counter_value (Telemetry.Metrics.counter ba name)))
    [ "reqs"; "errors" ];
  check (Alcotest.float 1e-9) "gauge depth"
    (Telemetry.Metrics.gauge_value (Telemetry.Metrics.gauge ab "depth"))
    (Telemetry.Metrics.gauge_value (Telemetry.Metrics.gauge ba "depth"));
  check_hist_equal "hist lat"
    (Telemetry.Metrics.histogram ab "lat")
    (Telemetry.Metrics.histogram ba "lat")

let test_metrics_merge_kind_mismatch () =
  let into = Telemetry.Metrics.create () in
  ignore (Telemetry.Metrics.counter into "x");
  let src = Telemetry.Metrics.create () in
  Telemetry.Metrics.set_gauge (Telemetry.Metrics.gauge src "x") 1.0;
  match Telemetry.Metrics.merge ~into src with
  | () -> Alcotest.fail "kind mismatch should raise"
  | exception Invalid_argument _ -> ()

(* ---- Metrics registry ---- *)

let test_metrics_registry () =
  let m = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter m "requests" in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.add c 4;
  check_int "counter" 5 (Telemetry.Metrics.counter_value c);
  Telemetry.Metrics.set_gauge (Telemetry.Metrics.gauge m "depth") 3.5;
  check (Alcotest.float 1e-9) "gauge" 3.5
    (Telemetry.Metrics.gauge_value (Telemetry.Metrics.gauge m "depth"));
  (match Telemetry.Metrics.gauge m "requests" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "kind mismatch should raise");
  check (Alcotest.list Alcotest.string) "names in registration order"
    [ "requests"; "depth" ]
    (Telemetry.Metrics.names m)

let test_metrics_json_parses () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.add (Telemetry.Metrics.counter m "n") 7;
  Telemetry.Histogram.observe
    (Telemetry.Metrics.histogram m "lat")
    123.0;
  match Telemetry.Json.of_string
          (Telemetry.Json.to_string (Telemetry.Metrics.to_json m))
  with
  | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)
  | Ok j ->
    (match Telemetry.Json.member "counters" j with
     | Some (Telemetry.Json.Obj [ ("n", Telemetry.Json.Int 7) ]) -> ()
     | _ -> Alcotest.fail "counters object wrong")

(* ---- Vmm.Stats counts live in the telemetry registry ---- *)

let busy_machine () =
  let m = Vmm.Machine.create () in
  let a = Vmm.Kernel.mmap m ~pages:2 in
  for i = 0 to 63 do
    Vmm.Mmu.store m (a + (8 * i)) ~width:8 i
  done;
  for i = 0 to 63 do
    ignore (Vmm.Mmu.load m (a + (8 * i)) ~width:8)
  done;
  Vmm.Kernel.munmap m ~addr:a ~pages:2;
  m

let test_stats_count_into_registry () =
  let m = busy_machine () in
  let s = Vmm.Stats.snapshot m.Vmm.Machine.stats in
  check_bool "exercised" true (s.Vmm.Stats.loads > 0);
  (* No sync step: the machine's registry already holds every counter
     the snapshot reports, under the same names field_values uses. *)
  let registry = Vmm.Stats.registry m.Vmm.Machine.stats in
  List.iter
    (fun (name, v) ->
      check_int name v
        (Telemetry.Metrics.counter_value (Telemetry.Metrics.counter registry name)))
    (Vmm.Stats.field_values s);
  (* And the snapshot is a faithful read-only view: counting more shows
     up in the next snapshot but never mutates an old one. *)
  let loads_before = s.Vmm.Stats.loads in
  ignore (Vmm.Mmu.load m (Vmm.Kernel.mmap m ~pages:1) ~width:8);
  check_int "old snapshot unchanged" loads_before s.Vmm.Stats.loads;
  check_int "new snapshot sees the load" (loads_before + 1)
    (Vmm.Stats.snapshot m.Vmm.Machine.stats).Vmm.Stats.loads

let test_stats_accumulate () =
  (* Summing snapshots and accumulating into one registry agree — the
     farm's per-shard aggregation path. *)
  let s1 = Vmm.Stats.snapshot (busy_machine ()).Vmm.Machine.stats in
  let s2 = Vmm.Stats.snapshot (busy_machine ()).Vmm.Machine.stats in
  let acc = Telemetry.Metrics.create () in
  let totals = Vmm.Stats.create ~registry:acc () in
  Vmm.Stats.add_snapshot totals s1;
  Vmm.Stats.add_snapshot totals s2;
  List.iter
    (fun (name, v) ->
      check_int name v
        (Telemetry.Metrics.counter_value (Telemetry.Metrics.counter acc name)))
    (Vmm.Stats.field_values (Vmm.Stats.sum s1 s2))

(* ---- Sink + instrumented machine ---- *)

let event_names sink =
  List.map
    (fun (e : Telemetry.Event.t) -> Telemetry.Event.name e.Telemetry.Event.kind)
    (Telemetry.Sink.events sink)

let test_disabled_sink_records_nothing () =
  let sink = Telemetry.Sink.disabled () in
  let m = Vmm.Machine.create ~trace:sink () in
  let scheme = Runtime.Schemes.shadow_pool m in
  let p = scheme.Runtime.Scheme.malloc 64 in
  scheme.Runtime.Scheme.free p;
  check_int "no events" 0 (List.length (Telemetry.Sink.events sink));
  check_int "nothing recorded" 0 (Telemetry.Sink.recorded sink)

let test_traced_alloc_free_fault_ordering () =
  let sink = Telemetry.Sink.create () in
  let m = Vmm.Machine.create ~trace:sink () in
  let scheme = Runtime.Schemes.shadow_pool m in
  let p = scheme.Runtime.Scheme.malloc ~site:"t.c:1" 64 in
  scheme.Runtime.Scheme.free ~site:"t.c:2" p;
  (match scheme.Runtime.Scheme.load p ~width:8 with
   | _ -> Alcotest.fail "dangling load not trapped"
   | exception Shadow.Report.Violation _ -> ());
  let names = event_names sink in
  let index prefix =
    match
      List.find_index (fun n -> String.starts_with ~prefix n) names
    with
    | Some i -> i
    | None -> Alcotest.fail (prefix ^ " event missing from " ^
                             String.concat "," names)
  in
  check_bool "malloc before free" true (index "malloc" < index "free");
  check_bool "free before fault" true (index "free" < index "page-fault");
  check_bool "fault before violation report" true
    (index "page-fault" < index "violation:use-after-free");
  let events = Telemetry.Sink.events sink in
  let seqs = List.map (fun (e : Telemetry.Event.t) -> e.Telemetry.Event.seq) events in
  check_bool "seq strictly increasing" true
    (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]));
  let stamps = List.map (fun (e : Telemetry.Event.t) -> e.Telemetry.Event.at) events in
  check_bool "timestamps non-decreasing" true
    (List.for_all2 ( <= ) stamps (List.tl stamps @ [ infinity ]))

let test_sampling () =
  let sink = Telemetry.Sink.create ~sample_every:3 () in
  let m = Vmm.Machine.create ~trace:sink () in
  let scheme = Runtime.Schemes.native m in
  for _ = 1 to 9 do
    let p = scheme.Runtime.Scheme.malloc 32 in
    scheme.Runtime.Scheme.free p
  done;
  (* The allocator's own mmap syscalls are samplable too, so pin the
     relationship rather than an exact count. *)
  let seen = Telemetry.Sink.seen sink in
  check_bool "saw at least the 18 heap events" true (seen >= 18);
  check_int "recorded every third" ((seen + 2) / 3)
    (Telemetry.Sink.recorded sink)

(* ---- Exporters ---- *)

let traced_events () =
  let sink = Telemetry.Sink.create () in
  let m = Vmm.Machine.create ~trace:sink () in
  let scheme = Runtime.Schemes.shadow_pool m in
  let p = scheme.Runtime.Scheme.malloc ~site:"x.c:9" 128 in
  scheme.Runtime.Scheme.store p ~width:8 1;
  scheme.Runtime.Scheme.free p;
  Telemetry.Sink.events sink

let test_jsonl_well_formed () =
  let events = traced_events () in
  check_bool "has events" true (events <> []);
  let lines =
    String.split_on_char '\n' (String.trim (Telemetry.Export.to_jsonl events))
  in
  check_int "one line per event" (List.length events) (List.length lines);
  List.iter
    (fun line ->
      match Telemetry.Json.of_string line with
      | Error e -> Alcotest.fail ("bad JSONL line: " ^ e ^ ": " ^ line)
      | Ok j ->
        check_bool "has type" true (Telemetry.Json.member "type" j <> None);
        check_bool "has cycles" true (Telemetry.Json.member "cycles" j <> None))
    lines

let test_chrome_trace_well_formed () =
  let events = traced_events () in
  match Telemetry.Json.of_string (Telemetry.Export.to_chrome_string events) with
  | Error e -> Alcotest.fail ("chrome trace does not parse: " ^ e)
  | Ok j ->
    (match Telemetry.Json.member "traceEvents" j with
     | Some (Telemetry.Json.List items) ->
       check_int "one trace event per event" (List.length events)
         (List.length items);
       List.iter
         (fun item ->
           check (Alcotest.option Alcotest.string) "instant phase"
             (Some "i")
             (match Telemetry.Json.member "ph" item with
              | Some (Telemetry.Json.String s) -> Some s
              | _ -> None);
           List.iter
             (fun k ->
               check_bool ("has " ^ k) true
                 (Telemetry.Json.member k item <> None))
             [ "name"; "cat"; "ts"; "pid"; "tid"; "args" ])
         items
     | _ -> Alcotest.fail "traceEvents missing")

let test_histogram_merge_single_bucket () =
  (* Identical samples occupy one bucket; merging must keep count, sum
     and quantiles exact (representative clamped to the extrema). *)
  let m = Telemetry.Histogram.merge (hist_of [ 5.0; 5.0; 5.0 ]) (hist_of [ 5.0 ]) in
  check_hist_equal "single bucket" (hist_of [ 5.0; 5.0; 5.0; 5.0 ]) m;
  check (Alcotest.float 1e-9) "p50 exact" 5.0
    (Telemetry.Histogram.percentile m 0.5);
  (* and the degenerate empty-into-empty merge stays empty *)
  let e =
    Telemetry.Histogram.merge
      (Telemetry.Histogram.create ())
      (Telemetry.Histogram.create ())
  in
  check_int "empty merge count" 0 (Telemetry.Histogram.count e);
  check (Alcotest.float 1e-9) "empty merge p99" 0.0
    (Telemetry.Histogram.percentile e 0.99)

let test_histogram_merge_into_self () =
  (* Self-merge is well-defined: it doubles the sample multiset. *)
  let h = hist_of [ 1.0; 2.0; 4.0; 0.0 ] in
  Telemetry.Histogram.merge_into ~into:h h;
  check_hist_equal "self-merge doubles"
    (hist_of [ 1.0; 2.0; 4.0; 0.0; 1.0; 2.0; 4.0; 0.0 ])
    h

(* The fleet pipeline publishes per-signature crash counters under
   label-bearing names; merging shard registries must treat them as
   ordinary counters keyed by the full name. *)
let crash_name =
  "fleet.crash_total{signature=\"00d1ab0l1c4l\",kind=\"use-after-free \
   (read)\",alloc_site=\"srv.c:10\"}"

let test_metrics_merge_crash_counters () =
  let a = Telemetry.Metrics.create () in
  Telemetry.Metrics.add (Telemetry.Metrics.counter a crash_name) 2;
  Telemetry.Metrics.set_gauge (Telemetry.Metrics.gauge a "fleet.signatures") 1.0;
  let b = Telemetry.Metrics.create () in
  Telemetry.Metrics.add (Telemetry.Metrics.counter b crash_name) 3;
  Telemetry.Metrics.add (Telemetry.Metrics.counter b "fleet.reports_total") 5;
  Telemetry.Metrics.set_gauge (Telemetry.Metrics.gauge b "fleet.signatures") 2.0;
  Telemetry.Metrics.merge ~into:a b;
  check_int "labelled counters add" 5
    (Telemetry.Metrics.counter_value (Telemetry.Metrics.counter a crash_name));
  check_int "missing counter appears" 5
    (Telemetry.Metrics.counter_value
       (Telemetry.Metrics.counter a "fleet.reports_total"));
  check (Alcotest.float 1e-9) "gauge takes max" 2.0
    (Telemetry.Metrics.gauge_value
       (Telemetry.Metrics.gauge a "fleet.signatures"));
  check_bool "value accessor sees the counter" true
    (match Telemetry.Metrics.value a crash_name with
     | Some (Telemetry.Metrics.Counter_v 5) -> true
     | _ -> false)

let test_prometheus_export () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.add (Telemetry.Metrics.counter m crash_name) 7;
  Telemetry.Metrics.add (Telemetry.Metrics.counter m "farm.connections") 9;
  Telemetry.Metrics.set_gauge (Telemetry.Metrics.gauge m "farm.max_va_bytes") 4096.0;
  List.iter
    (Telemetry.Histogram.observe (Telemetry.Metrics.histogram m "farm.latency_cycles"))
    [ 10.0; 20.0; 30.0 ];
  let text = Telemetry.Export.to_prometheus m in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "labelled crash counter line" true
    (has
       "fleet_crash_total{signature=\"00d1ab0l1c4l\",kind=\"use-after-free \
        (read)\",alloc_site=\"srv.c:10\"} 7");
  check_bool "crash counter TYPE line" true
    (has "# TYPE fleet_crash_total counter");
  check_bool "counter gets _total suffix" true (has "farm_connections_total 9");
  check_bool "gauge line" true (has "farm_max_va_bytes 4096");
  check_bool "gauge TYPE line" true (has "# TYPE farm_max_va_bytes gauge");
  check_bool "summary TYPE line" true
    (has "# TYPE farm_latency_cycles summary");
  check_bool "summary quantile label" true
    (has "farm_latency_cycles{quantile=\"0.5\"}");
  check_bool "summary count" true (has "farm_latency_cycles_count 3");
  check_bool "summary sum" true (has "farm_latency_cycles_sum 60")

let test_chrome_trace_grouped () =
  let events = traced_events () in
  let groups = [ (1, 1, events); (2, 1, events) ] in
  match
    Telemetry.Json.of_string
      (Telemetry.Export.to_chrome_string_grouped groups)
  with
  | Error e -> Alcotest.fail ("grouped chrome trace does not parse: " ^ e)
  | Ok j ->
    (match Telemetry.Json.member "traceEvents" j with
     | Some (Telemetry.Json.List items) ->
       let phase item =
         match Telemetry.Json.member "ph" item with
         | Some (Telemetry.Json.String s) -> s
         | _ -> "?"
       in
       let pid item =
         match Telemetry.Json.member "pid" item with
         | Some (Telemetry.Json.Int p) -> p
         | _ -> -1
       in
       let meta, insts = List.partition (fun i -> phase i = "M") items in
       check_int "one process_name record per shard lane" 2 (List.length meta);
       check_bool "metadata names the lanes" true
         (List.sort compare (List.map pid meta) = [ 1; 2 ]);
       check_int "every event in some lane" (2 * List.length events)
         (List.length insts);
       check_int "lane 1 carries its events" (List.length events)
         (List.length (List.filter (fun i -> pid i = 1) insts));
       check_int "lane 2 carries its events" (List.length events)
         (List.length (List.filter (fun i -> pid i = 2) insts))
     | _ -> Alcotest.fail "traceEvents missing")

let test_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"json print/parse round-trip"
    QCheck.(
      list_of_size Gen.(0 -- 8)
        (pair (string_of_size Gen.(0 -- 6)) small_signed_int))
    (fun fields ->
      let j =
        Telemetry.Json.Obj
          (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) fields)
      in
      (* duplicate keys are legal JSON but not round-trippable *)
      QCheck.assume
        (List.length fields
         = List.length (List.sort_uniq compare (List.map fst fields)));
      match Telemetry.Json.of_string (Telemetry.Json.to_string j) with
      | Ok j' -> j = j'
      | Error _ -> false)

let () =
  Alcotest.run "telemetry"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts and extrema" `Quick test_histogram_counts;
          QCheck_alcotest.to_alcotest test_histogram_percentile_matches_oracle;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "json export parses" `Quick
            test_metrics_json_parses;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest test_histogram_merge_is_union;
          QCheck_alcotest.to_alcotest test_histogram_merge_order_independent;
          Alcotest.test_case "bpo mismatch raises" `Quick
            test_histogram_merge_bpo_mismatch;
          Alcotest.test_case "empty is identity" `Quick
            test_histogram_merge_into_empty;
          Alcotest.test_case "single bucket and empty edges" `Quick
            test_histogram_merge_single_bucket;
          Alcotest.test_case "merge into self doubles" `Quick
            test_histogram_merge_into_self;
          Alcotest.test_case "registry merge" `Quick test_metrics_merge;
          Alcotest.test_case "crash counters merge" `Quick
            test_metrics_merge_crash_counters;
          Alcotest.test_case "registry merge order-independent" `Quick
            test_metrics_merge_order_independent;
          Alcotest.test_case "registry kind mismatch raises" `Quick
            test_metrics_merge_kind_mismatch;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counts land in the registry" `Quick
            test_stats_count_into_registry;
          Alcotest.test_case "accumulate = sum" `Quick test_stats_accumulate;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_sink_records_nothing;
          Alcotest.test_case "alloc/free/fault ordering" `Quick
            test_traced_alloc_free_fault_ordering;
          Alcotest.test_case "sampling" `Quick test_sampling;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl" `Quick test_jsonl_well_formed;
          Alcotest.test_case "chrome trace" `Quick
            test_chrome_trace_well_formed;
          Alcotest.test_case "chrome trace shard lanes" `Quick
            test_chrome_trace_grouped;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_export;
          QCheck_alcotest.to_alcotest test_json_roundtrip;
        ] );
    ]
