(* Tests for the experiment harness: table generation, ratio sanity, the
   §4.3 address-space study, and the detection matrix — checking the
   *shape* of the paper's results at reduced scale. *)

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* ---- experiment runner ---- *)

let test_run_batch_result_fields () =
  let b =
    match Workload.Catalog.find_batch "gzip" with
    | Some b -> b
    | None -> Alcotest.fail "gzip missing"
  in
  let r = Harness.Experiment.run_batch ~scale:30 b Runtime.Scheme_spec.ours in
  check_bool "cycles" true (r.Harness.Experiment.cycles > 0.);
  check_bool "frames" true (r.Harness.Experiment.peak_frames > 0);
  check_bool "va" true (r.Harness.Experiment.va_bytes > 0)

let test_config_labels_unique () =
  let labels =
    List.map Harness.Experiment.config_label Harness.Experiment.all_configs
  in
  check_int "distinct labels" (List.length labels)
    (List.length (List.sort_uniq compare labels))

(* ---- table 1 ---- *)

let test_table1_shape () =
  let rows = Harness.Table1.rows ~scale_divisor:8 () in
  check_int "9 rows (4 utilities + 5 servers)" 9 (List.length rows);
  List.iter
    (fun (r : Harness.Table1.row) ->
      check_bool (r.Harness.Table1.name ^ ": ratio1 sane") true
        (r.Harness.Table1.ratio1 > 0.85 && r.Harness.Table1.ratio1 < 3.0);
      check_bool (r.Harness.Table1.name ^ ": ours >= pa+dummy - slack") true
        (r.Harness.Table1.ours >= r.Harness.Table1.pa_dummy *. 0.95))
    rows;
  let rendered = Harness.Table1.render rows in
  check_bool "render mentions enscript" true (contains rendered "enscript");
  check_bool "render mentions ftpd" true (contains rendered "ftpd")

let test_table1_servers_low_overhead () =
  let server =
    match Workload.Catalog.find_server "fingerd" with
    | Some s -> s
    | None -> Alcotest.fail "fingerd missing"
  in
  let row = Harness.Table1.server_row ~connections:5 server in
  check_bool
    (Printf.sprintf "server overhead < 6%% (got %.2f)" row.Harness.Table1.ratio1)
    true
    (row.Harness.Table1.ratio1 < 1.06)

(* ---- table 2 ---- *)

let test_table2_valgrind_worse () =
  let rows = Harness.Table2.rows ~scale_divisor:8 () in
  check_int "4 utilities" 4 (List.length rows);
  List.iter
    (fun (r : Harness.Table2.row) ->
      check_bool (r.Harness.Table2.name ^ ": valgrind ≫ ours") true
        (r.Harness.Table2.valgrind_slowdown > 3. *. r.Harness.Table2.ours_slowdown))
    rows;
  ignore (Harness.Table2.render rows)

(* ---- table 3 ---- *)

let test_table3_shape () =
  let rows = Harness.Table3.rows ~scale_divisor:4 () in
  check_int "9 olden rows" 9 (List.length rows);
  let find name =
    List.find (fun (r : Harness.Table3.row) -> r.Harness.Table3.name = name) rows
  in
  (* The qualitative ordering the paper reports: health is the worst
     case; em3d and power are the mildest. *)
  check_bool "health worse than em3d" true
    ((find "health").Harness.Table3.ratio3 > (find "em3d").Harness.Table3.ratio3);
  check_bool "health worse than power" true
    ((find "health").Harness.Table3.ratio3
     > (find "power").Harness.Table3.ratio3);
  check_bool "health is heavy (>= 3x at reduced scale)" true
    ((find "health").Harness.Table3.ratio3 >= 3.0);
  List.iter
    (fun (r : Harness.Table3.row) ->
      check_bool (r.Harness.Table3.name ^ " slowdown >= ~1") true
        (r.Harness.Table3.ratio3 >= 0.9))
    rows;
  ignore (Harness.Table3.render rows)

(* ---- §4.3 ---- *)

let test_addr_space_study () =
  let row srv_name =
    match Workload.Catalog.find_server srv_name with
    | Some s -> Harness.Addr_space.measure ~connections:3 s
    | None -> Alcotest.fail (srv_name ^ " missing")
  in
  let ghttpd = row "ghttpd" in
  check_bool "ghttpd wastage ~1 page" true
    (ghttpd.Harness.Addr_space.wasted_pages_per_connection <= 1.5);
  let ftpd = row "ftpd" in
  let per_command =
    ftpd.Harness.Addr_space.wasted_pages_per_connection
    /. float_of_int Workload.Servers.ftpd_commands_per_connection
  in
  check_bool
    (Printf.sprintf "ftpd 5-6 pages/command (%.1f)" per_command)
    true
    (per_command >= 4.5 && per_command <= 6.5);
  check_bool "ftpd realpath pool recycles" true
    (ftpd.Harness.Addr_space.recycled_pages_per_connection > 0.);
  let telnetd = row "telnetd" in
  check_bool
    (Printf.sprintf "telnetd ~45 pages/session (%.1f)"
       telnetd.Harness.Addr_space.wasted_pages_per_connection)
    true
    (telnetd.Harness.Addr_space.wasted_pages_per_connection >= 44.
     && telnetd.Harness.Addr_space.wasted_pages_per_connection <= 47.);
  ignore (Harness.Addr_space.render [ ghttpd; ftpd; telnetd ])

(* ---- latency distribution ---- *)

let test_latency_distribution () =
  let dists = Harness.Latency.study ~connections:40 () in
  check_int "three configs" 3 (List.length dists);
  let find config =
    List.find (fun d -> d.Harness.Latency.config = config) dists
  in
  let base = find Runtime.Scheme_spec.llvm_base in
  let ours = find Runtime.Scheme_spec.ours in
  check_bool "percentiles ordered" true
    (base.Harness.Latency.p50 <= base.Harness.Latency.p95
     && base.Harness.Latency.p95 <= base.Harness.Latency.p99);
  let p50_ratio = ours.Harness.Latency.p50 /. base.Harness.Latency.p50 in
  let p99_ratio = ours.Harness.Latency.p99 /. base.Harness.Latency.p99 in
  check_bool
    (Printf.sprintf "overhead small at p50 (%.2f)" p50_ratio)
    true (p50_ratio < 1.10);
  check_bool
    (Printf.sprintf "overhead shrinks toward the tail (%.2f <= %.2f + eps)"
       p99_ratio p50_ratio)
    true
    (p99_ratio <= p50_ratio +. 0.01);
  ignore (Harness.Latency.render dists)

(* ---- detection matrix ---- *)

let test_detection_matrix () =
  let cells = Harness.Detection_matrix.run () in
  check_int "all cells present"
    (List.length Harness.Detection_matrix.configs
     * List.length Workload.Fault_injection.all)
    (List.length cells);
  let guaranteed = Harness.Detection_matrix.guaranteed_configs cells in
  check_bool "ours guaranteed" true
    (List.mem Runtime.Scheme_spec.ours guaranteed);
  check_bool "ours (no pools) guaranteed" true
    (List.mem Runtime.Scheme_spec.ours_basic guaranteed);
  check_bool "efence guaranteed" true
    (List.mem Runtime.Scheme_spec.efence guaranteed);
  check_bool "capability guaranteed" true
    (List.mem Runtime.Scheme_spec.capability guaranteed);
  check_bool "native not guaranteed" false
    (List.mem Runtime.Scheme_spec.native guaranteed);
  check_bool "valgrind heuristic not guaranteed" false
    (List.mem Runtime.Scheme_spec.valgrind guaranteed);
  let rendered = Harness.Detection_matrix.render cells in
  check_bool "rendered" true (contains rendered "valgrind")

(* ---- table renderer ---- *)

let test_spatial_matrix () =
  let cells = Harness.Detection_matrix.run_spatial () in
  let outcome config scenario =
    match
      List.find_opt
        (fun (c : Harness.Detection_matrix.cell) ->
          c.Harness.Detection_matrix.config = config
          && c.Harness.Detection_matrix.scenario = scenario)
        cells
    with
    | Some c -> c.Harness.Detection_matrix.outcome
    | None -> Alcotest.fail "missing cell"
  in
  let detected = function
    | Workload.Fault_injection.Detected _ -> true
    | Workload.Fault_injection.Silent _
    | Workload.Fault_injection.Crashed _
    | Workload.Fault_injection.Crashed_degraded _ ->
      false
  in
  List.iter
    (fun scenario ->
      check_bool "ours+bounds catches spatial" true
        (detected (outcome Runtime.Scheme_spec.ours_bounds scenario));
      check_bool "base scheme is temporal-only" false
        (detected (outcome Runtime.Scheme_spec.ours scenario));
      check_bool "native misses" false
        (detected (outcome Runtime.Scheme_spec.native scenario)))
    [ "overflow-read"; "overflow-write" ]

let test_table_render () =
  let out =
    Harness.Table.render ~headers:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  check_bool "has rule" true (contains out "--");
  check_bool "aligned" true (contains out "22");
  Alcotest.check Alcotest.string "cycles fmt" "1.50"
    (Harness.Table.fmt_cycles 1_500_000.);
  Alcotest.check Alcotest.string "bytes fmt" "4.0 KiB"
    (Harness.Table.fmt_bytes 4096)

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "result fields" `Quick test_run_batch_result_fields;
          Alcotest.test_case "config labels" `Quick test_config_labels_unique;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1 shape" `Slow test_table1_shape;
          Alcotest.test_case "table1 servers" `Quick
            test_table1_servers_low_overhead;
          Alcotest.test_case "table2 valgrind worse" `Slow
            test_table2_valgrind_worse;
          Alcotest.test_case "table3 shape" `Slow test_table3_shape;
          Alcotest.test_case "renderer" `Quick test_table_render;
        ] );
      ( "addr-space",
        [ Alcotest.test_case "§4.3 study" `Quick test_addr_space_study ] );
      ( "latency",
        [ Alcotest.test_case "distribution" `Quick test_latency_distribution ] );
      ( "detection",
        [
          Alcotest.test_case "matrix" `Quick test_detection_matrix;
          Alcotest.test_case "spatial matrix" `Quick test_spatial_matrix;
        ] );
    ]
