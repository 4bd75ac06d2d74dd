(* Sanity-checks a BENCH_results.json produced by bench/main.exe: the
   file must parse as JSON and carry every section the docs promise
   (tables 1-3, cost rows, bechamel, the fast-path microbench).  Run by
   [make bench-smoke] so a malformed results file fails CI instead of
   silently shipping. *)

module J = Telemetry.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate: " ^ m); exit 1) fmt

let member path doc key =
  match J.member key doc with
  | Some v -> v
  | None -> fail "missing key %s.%s" path key

let non_empty_list path = function
  | J.List (_ :: _ as l) -> l
  | J.List [] -> fail "%s is empty" path
  | _ -> fail "%s is not a list" path

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_results.json" in
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" file e
  in
  let doc =
    match J.of_string text with
    | Ok d -> d
    | Error e -> fail "%s does not parse: %s" file e
  in
  (match member "" doc "schema" with
   | J.Int 1 -> ()
   | _ -> fail "schema must be 1");
  let tables = member "" doc "tables" in
  List.iter
    (fun t -> ignore (member "tables" tables t))
    [ "table1"; "table2"; "table3" ];
  ignore (non_empty_list "cost_rows" (member "" doc "cost_rows"));
  (match member "" doc "bechamel" with
   | J.List _ -> () (* may be empty under SKIP_BECHAMEL *)
   | _ -> fail "bechamel is not a list");
  let fastpath = member "" doc "fastpath" in
  let rows = non_empty_list "fastpath.rows" (member "fastpath" fastpath "rows") in
  List.iter
    (fun row ->
      List.iter
        (fun k -> ignore (member "fastpath.rows[]" row k))
        [ "name"; "before_ns"; "after_ns"; "speedup" ])
    rows;
  let structural = member "fastpath" fastpath "structural" in
  let structural_int k =
    match member "fastpath.structural" structural k with
    | J.Int n -> n
    | _ -> fail "fastpath.structural.%s is not an int" k
  in
  (* The design's structural invariants, re-checked at validation time:
     a TLB hit must not walk the page table, and a word access must do
     exactly one frame lookup. *)
  if structural_int "page_table_walks_per_tlb_hit_load" <> 0 then
    fail "TLB-hit load walked the page table";
  if structural_int "frame_lookups_per_load8" <> 1 then
    fail "8-byte load did not do exactly one frame lookup";
  if structural_int "frame_lookups_per_store8" <> 1 then
    fail "8-byte store did not do exactly one frame lookup";
  (* OCaml heap budgets (the same as test/test_vmm_fastpath.ml's): the
     TLB-hit access path allocates nothing, and one ghttpd connection
     allocates at most 6,000 words, at most 2,048 of them directly in
     the major heap. *)
  if structural_int "access_minor_words" <> 0 then
    fail "TLB-hit accesses allocated %d minor words"
      (structural_int "access_minor_words");
  let conn_minor = structural_int "connection_minor_words" in
  let conn_major = structural_int "connection_major_words" in
  if conn_minor + conn_major > 6000 then
    fail "one ghttpd connection allocated %d words (budget 6000)"
      (conn_minor + conn_major);
  if conn_major > 2048 then
    fail "one ghttpd connection allocated %d words directly in the major \
          heap (budget 2048)"
      conn_major;
  (* Shadow bookkeeping budgets (also pinned by
     test/test_vmm_fastpath.ml): the measured values plus 25%, and at
     least 2 words, of headroom.  A warm alloc + free under [ours]
     measured 54 words (budget 68); pool destroy measured 0 words per
     object (budget 2) — one ascending walk of the pool's page-indexed
     range table, no list, sort or coalescing copy per range. *)
  let alloc_free = structural_int "shadow_alloc_free_words" in
  if alloc_free > 68 then
    fail "a warm pool_alloc + pool_free allocated %d words (budget 68)"
      alloc_free;
  let destroy_words = structural_int "pool_destroy_words_per_object" in
  if destroy_words > 2 then
    fail "pool_destroy allocated %d words per object (budget 2)" destroy_words;
  (* Static elision: the analysis-driven scheme must have skipped real
     syscalls on at least two workloads, kept outputs identical, and —
     the soundness half — every seeded-bug probe must still be detected
     at a site the analysis flagged. *)
  let static_elision = member "" doc "static_elision" in
  let se_rows =
    non_empty_list "static_elision.rows"
      (member "static_elision" static_elision "rows")
  in
  let row_int row k =
    match member "static_elision.rows[]" row k with
    | J.Int n -> n
    | _ -> fail "static_elision.rows[].%s is not an int" k
  in
  let elided_workloads =
    List.filter
      (fun row -> row_int row "elided_allocs" > 0 && row_int row "saved_syscalls" > 0)
      se_rows
  in
  if List.length elided_workloads < 2 then
    fail "static elision saved syscalls on %d workloads (need >= 2)"
      (List.length elided_workloads);
  List.iter
    (fun row ->
      (match member "static_elision.rows[]" row "outputs_equal" with
       | J.Bool true -> ()
       | _ -> fail "static elision changed a workload's output");
      if row_int row "static_syscalls" > row_int row "full_syscalls" then
        fail "static elision increased syscalls on a workload")
    se_rows;
  let se_probes =
    non_empty_list "static_elision.probes"
      (member "static_elision" static_elision "probes")
  in
  List.iter
    (fun probe ->
      let pname =
        match member "static_elision.probes[]" probe "name" with
        | J.String s -> s
        | _ -> "?"
      in
      (match member "static_elision.probes[]" probe "detected" with
       | J.Bool true -> ()
       | _ -> fail "probe %s not detected under static elision" pname);
      match member "static_elision.probes[]" probe "at_flagged_site" with
      | J.Bool true -> ()
      | _ -> fail "probe %s trapped at a site the analysis marked Safe" pname)
    se_probes;
  (* Pool inference: on the workloads with scoped lifetimes (churn and
     server) the inferred-pool placement must hold peak shadow VA
     strictly below the single-global-pool baseline, with identical
     outputs and a byte-deterministic canonical pool map; and the
     seeded-bug probes must produce exactly the same violation list
     under both placements — inference moves VA lifetimes, never
     detections. *)
  let pool_inference = member "" doc "pool_inference" in
  let pi_rows =
    non_empty_list "pool_inference.rows"
      (member "pool_inference" pool_inference "rows")
  in
  let pi_int row k =
    match member "pool_inference.rows[]" row k with
    | J.Int n -> n
    | _ -> fail "pool_inference.rows[].%s is not an int" k
  in
  let pi_str row k =
    match member "pool_inference.rows[]" row k with
    | J.String s -> s
    | _ -> fail "pool_inference.rows[].%s is not a string" k
  in
  List.iter
    (fun row ->
      let name = pi_str row "name" in
      (match member "pool_inference.rows[]" row "outputs_equal" with
       | J.Bool true -> ()
       | _ -> fail "pool inference changed %s's output" name);
      (match member "pool_inference.rows[]" row "deterministic" with
       | J.Bool true -> ()
       | _ -> fail "pool map for %s is not deterministic" name);
      if pi_int row "pools" <= 0 then
        fail "pool inference found no pools on %s" name;
      if name = "churn" || name = "server" then begin
        if pi_int row "inferred_peak_pages" >= pi_int row "global_peak_pages"
        then
          fail
            "inferred pools did not lower peak shadow VA on %s (%d vs %d)"
            name
            (pi_int row "inferred_peak_pages")
            (pi_int row "global_peak_pages");
        if pi_int row "pools_destroyed" <= 0 then
          fail "pool inference never destroyed a pool on %s" name;
        if pi_int row "destroy_unmapped_pages" <= 0 then
          fail "pool destroys released no shadow pages on %s" name
      end)
    pi_rows;
  List.iter
    (fun name ->
      if not (List.exists (fun row -> pi_str row "name" = name) pi_rows) then
        fail "pool_inference has no %s row" name)
    [ "churn"; "server" ];
  let pi_probes =
    non_empty_list "pool_inference.probes"
      (member "pool_inference" pool_inference "probes")
  in
  List.iter
    (fun probe ->
      let pname =
        match member "pool_inference.probes[]" probe "name" with
        | J.String s -> s
        | _ -> "?"
      in
      (match member "pool_inference.probes[]" probe "detected" with
       | J.Bool true -> ()
       | _ -> fail "probe %s not detected under inferred pools" pname);
      match member "pool_inference.probes[]" probe "detections_identical" with
      | J.Bool true -> ()
      | _ ->
        fail "probe %s detections differ between inferred and global pools"
          pname)
    pi_probes;
  (* Resilience campaign: every row must have completed without an
     undiagnosed crash, and every detection miss must be attributed to a
     recorded degradation window. *)
  let resilience = member "" doc "resilience" in
  let res_rows =
    non_empty_list "resilience.rows" (member "resilience" resilience "rows")
  in
  List.iter
    (fun row ->
      let str k =
        match member "resilience.rows[]" row k with
        | J.String s -> s
        | _ -> fail "resilience.rows[].%s is not a string" k
      in
      let where = str "plan" ^ "/" ^ str "scheme" ^ "/" ^ str "workload" in
      (match member "resilience.rows[]" row "completed" with
      | J.Bool true -> ()
      | _ -> fail "resilience row %s did not complete" where);
      (match member "resilience.rows[]" row "crash" with
      | J.Null -> ()
      | J.String c -> fail "resilience row %s crashed: %s" where c
      | _ -> fail "resilience.rows[].crash has the wrong type");
      match member "resilience.rows[]" row "probes_missed_unattributed" with
      | J.Int 0 -> ()
      | J.Int n -> fail "resilience row %s: %d unattributed misses" where n
      | _ -> fail "resilience.rows[].probes_missed_unattributed not an int")
    res_rows;
  let summary = member "resilience" resilience "summary" in
  let summary_int k =
    match member "resilience.summary" summary k with
    | J.Int n -> n
    | _ -> fail "resilience.summary.%s is not an int" k
  in
  if summary_int "undiagnosed_crashes" <> 0 then
    fail "resilience campaign had undiagnosed crashes";
  if summary_int "unattributed_misses" <> 0 then
    fail "resilience campaign had unattributed detection misses";
  (match member "resilience.summary" summary "ok" with
  | J.Bool true -> ()
  | _ -> fail "resilience.summary.ok is not true");
  (* Farm scaling: rows for 1/2/4/8 shards; sharding must pay (>= 2x
     simulated throughput at 4 shards) without perturbing the merged
     totals — detections and syscalls are the determinism contract. *)
  let farm = member "" doc "farm" in
  let farm_rows = non_empty_list "farm.rows" (member "farm" farm "rows") in
  let farm_int row k =
    match member "farm.rows[]" row k with
    | J.Int n -> n
    | _ -> fail "farm.rows[].%s is not an int" k
  in
  let farm_float row k =
    match member "farm.rows[]" row k with
    | J.Float f -> f
    | J.Int n -> float_of_int n
    | _ -> fail "farm.rows[].%s is not a number" k
  in
  let throughput_at shards =
    match
      List.find_opt (fun row -> farm_int row "shards" = shards) farm_rows
    with
    | Some row -> farm_float row "throughput_conn_per_mcycle"
    | None -> fail "farm has no row for %d shards" shards
  in
  let t1 = throughput_at 1 in
  List.iter (fun s -> ignore (throughput_at s)) [ 2; 4; 8 ];
  if throughput_at 4 < 2.0 *. t1 then
    fail "farm at 4 shards is under 2x single-shard throughput (%.3f vs %.3f)"
      (throughput_at 4) t1;
  (match farm_rows with
   | base :: rest ->
     let d0 = farm_int base "detections" and s0 = farm_int base "syscalls" in
     if d0 <= 0 then fail "farm recorded no detections (probes missing?)";
     List.iter
       (fun row ->
         if farm_int row "detections" <> d0 then
           fail "farm detections differ across shard counts (%d vs %d)"
             (farm_int row "detections") d0;
         if farm_int row "syscalls" <> s0 then
           fail "farm syscalls differ across shard counts (%d vs %d)"
             (farm_int row "syscalls") s0)
       rest
   | [] -> ());
  (* Epoch-batched farm rows: the same server set under the epoch
     scheme must keep the eager rows' detections (batching never costs
     a detection) while doing strictly fewer syscalls, and must be just
     as deterministic across shard counts. *)
  let epoch_farm_rows =
    non_empty_list "farm.epoch_rows" (member "farm" farm "epoch_rows")
  in
  (match (farm_rows, epoch_farm_rows) with
   | base :: _, ebase :: erest ->
     let d0 = farm_int base "detections" and s0 = farm_int base "syscalls" in
     let ed0 = farm_int ebase "detections" in
     let es0 = farm_int ebase "syscalls" in
     if ed0 <> d0 then
       fail "epoch farm detections %d differ from eager %d" ed0 d0;
     if es0 >= s0 then
       fail "epoch farm did not cut syscalls (%d vs eager %d)" es0 s0;
     List.iter
       (fun row ->
         if farm_int row "detections" <> ed0 then
           fail "epoch farm detections differ across shard counts (%d vs %d)"
             (farm_int row "detections") ed0;
         if farm_int row "syscalls" <> es0 then
           fail "epoch farm syscalls differ across shard counts (%d vs %d)"
             (farm_int row "syscalls") es0)
       erest
   | _ -> ());
  (* Epoch batching: the headline perf invariant — on the churn
     workload the epoch scheme must spend at most a tenth of the eager
     scheme's protection syscalls per heap op (the design target), and
     no workload may exceed a quarter.  The soundness half: every
     quarantine-window probe detected through its expected path, no
     protect ever silently dropped. *)
  let epoch = member "" doc "epoch_batching" in
  let epoch_rows =
    non_empty_list "epoch_batching.rows" (member "epoch_batching" epoch "rows")
  in
  let erow_str row k =
    match member "epoch_batching.rows[]" row k with
    | J.String s -> s
    | _ -> fail "epoch_batching.rows[].%s is not a string" k
  in
  let erow_num row k =
    match member "epoch_batching.rows[]" row k with
    | J.Float f -> f
    | J.Int n -> float_of_int n
    | _ -> fail "epoch_batching.rows[].%s is not a number" k
  in
  List.iter
    (fun row ->
      let w = erow_str row "workload" in
      let ratio = erow_num row "ratio" in
      if ratio > 0.25 then
        fail "epoch batching on %s saved too little (ratio %.3f > 0.25)" w ratio;
      if w = "churn" && ratio > 0.1 then
        fail "epoch batching on churn is under 10x (ratio %.3f > 0.1)" ratio;
      if erow_num row "failed_protects" > 0.0 then
        fail "epoch batching on %s dropped a protection" w)
    epoch_rows;
  if not (List.exists (fun row -> erow_str row "workload" = "churn") epoch_rows)
  then fail "epoch_batching has no churn row";
  ignore
    (non_empty_list "epoch_batching.sweep" (member "epoch_batching" epoch "sweep"));
  let epoch_probes =
    non_empty_list "epoch_batching.probes"
      (member "epoch_batching" epoch "probes")
  in
  List.iter
    (fun probe ->
      let pname =
        match member "epoch_batching.probes[]" probe "name" with
        | J.String s -> s
        | _ -> "?"
      in
      (match member "epoch_batching.probes[]" probe "detected" with
       | J.Bool true -> ()
       | _ -> fail "epoch probe %s not detected" pname);
      let via = erow_str probe "via" in
      let want = erow_str probe "expected_via" in
      if via <> want then
        fail "epoch probe %s detected via %s (expected %s)" pname via want)
    epoch_probes;
  (match member "epoch_batching" epoch "missed_probes" with
   | J.Int 0 -> ()
   | J.Int n -> fail "epoch batching missed %d quarantine-window probes" n
   | _ -> fail "epoch_batching.missed_probes is not an int");
  (* Tagged backend: the point of the scheme is trading shadow's VA and
     protection syscalls for a per-access software check — so the churn
     row must show tagged VA well under shadow's (at least 4x) with zero
     protection syscalls per op, every seeded probe must fault in Full
     mode, the tag_bits=2 wrap demo must record the wrap AND attribute
     the masked pass, and the tagged farm must merge deterministically
     across shard counts like every other backend. *)
  let tag = member "" doc "tag_backend" in
  let tag_rows =
    non_empty_list "tag_backend.rows" (member "tag_backend" tag "rows")
  in
  let trow_int path row k =
    match member path row k with
    | J.Int n -> n
    | _ -> fail "%s.%s is not an int" path k
  in
  let trow_num path row k =
    match member path row k with
    | J.Float f -> f
    | J.Int n -> float_of_int n
    | _ -> fail "%s.%s is not a number" path k
  in
  List.iter
    (fun row ->
      let w = erow_str row "workload" in
      let p = "tag_backend.rows[]" in
      let shadow_va = trow_int p row "shadow_va_pages" in
      let tagged_va = trow_int p row "tagged_va_pages" in
      if tagged_va * 4 > shadow_va then
        fail "tagged VA on %s is not well under shadow's (%d vs %d pages)" w
          tagged_va shadow_va;
      if trow_num p row "tagged_syscalls_per_op" > 0.0 then
        fail "tagged backend on %s issued protection syscalls" w;
      if trow_int p row "tag_checks" <= 0 then
        fail "tagged backend on %s recorded no tag checks" w;
      if trow_int p row "tag_faults" <> 0 then
        fail "tagged backend on %s faulted on a correct workload" w;
      List.iter
        (fun k ->
          if trow_int p row k < 0 then fail "tag_backend.rows[].%s negative" k)
        [ "generation_wraps"; "wrap_masked_passes"; "table_bytes" ])
    tag_rows;
  if not (List.exists (fun row -> erow_str row "workload" = "churn") tag_rows)
  then fail "tag_backend has no churn row";
  let tag_probes =
    non_empty_list "tag_backend.probes" (member "tag_backend" tag "probes")
  in
  List.iter
    (fun probe ->
      let pname =
        match member "tag_backend.probes[]" probe "name" with
        | J.String s -> s
        | _ -> "?"
      in
      match member "tag_backend.probes[]" probe "detected" with
      | J.Bool true -> ()
      | _ -> fail "tagged probe %s not detected" pname)
    tag_probes;
  (match member "tag_backend" tag "missed_probes" with
   | J.Int 0 -> ()
   | J.Int n -> fail "tagged backend missed %d seeded probes" n
   | _ -> fail "tag_backend.missed_probes is not an int");
  let wrap = member "tag_backend" tag "wrap" in
  if trow_int "tag_backend.wrap" wrap "generation_wraps" <= 0 then
    fail "wrap demo recorded no generation wrap";
  if trow_int "tag_backend.wrap" wrap "wrap_masked_passes" <= 0 then
    fail "wrap demo recorded no attributed masked pass";
  (match member "tag_backend.wrap" wrap "masked_pass_observed" with
   | J.Bool true -> ()
   | _ -> fail "wrap demo masked pass not observed at the access site");
  let tag_server = member "tag_backend" tag "server" in
  let server_va k = trow_int "tag_backend.server" tag_server k in
  if
    server_va "tagged_max_va_bytes_per_connection"
    > server_va "shadow_max_va_bytes_per_connection"
  then fail "tagged server burns more VA per connection than shadow";
  let tag_farm =
    non_empty_list "tag_backend.farm_rows" (member "tag_backend" tag "farm_rows")
  in
  (match tag_farm with
   | first :: rest ->
     let p = "tag_backend.farm_rows[]" in
     let d0 = trow_int p first "detections" in
     let s0 = trow_int p first "syscalls" in
     if d0 <= 0 then fail "tagged farm recorded no detections";
     List.iter
       (fun row ->
         if trow_int p row "detections" <> d0 then
           fail "tagged farm detections differ across shard counts (%d vs %d)"
             (trow_int p row "detections") d0;
         if trow_int p row "syscalls" <> s0 then
           fail "tagged farm syscalls differ across shard counts (%d vs %d)"
             (trow_int p row "syscalls") s0)
       rest
   | [] -> ());
  (* Fleet crash reports: eight runs (2 policies x 4 shard counts) in
     recoverable mode.  The determinism contract is byte-level — every
     run's canonical ranked report must be identical — and the seeded
     probes must all surface, deduped to exactly one signature per
     injection site with the seeded count. *)
  let fleet = member "" doc "fleet_report" in
  let fleet_rows =
    non_empty_list "fleet_report.rows" (member "fleet_report" fleet "rows")
  in
  if List.length fleet_rows <> 8 then
    fail "fleet_report has %d rows (want 2 policies x 4 shard counts = 8)"
      (List.length fleet_rows);
  let fleet_int path row k =
    match member path row k with
    | J.Int n -> n
    | _ -> fail "%s.%s is not an int" path k
  in
  let fleet_str path row k =
    match member path row k with
    | J.String s -> s
    | _ -> fail "%s.%s is not a string" path k
  in
  let expected_probes = fleet_int "fleet_report" fleet "expected_probes" in
  let expected_sites =
    non_empty_list "fleet_report.expected_sites"
      (member "fleet_report" fleet "expected_sites")
  in
  let canonical0 = fleet_str "fleet_report.rows[]" (List.hd fleet_rows) "canonical" in
  List.iter
    (fun row ->
      let where =
        Printf.sprintf "%s/%d shards"
          (fleet_str "fleet_report.rows[]" row "policy")
          (fleet_int "fleet_report.rows[]" row "shards")
      in
      if fleet_int "fleet_report.rows[]" row "detections" <> 0 then
        fail "fleet run %s: a violation escaped recovery" where;
      if fleet_int "fleet_report.rows[]" row "total_reports" <> expected_probes
      then
        fail "fleet run %s reported %d of %d seeded probes" where
          (fleet_int "fleet_report.rows[]" row "total_reports")
          expected_probes;
      if fleet_str "fleet_report.rows[]" row "canonical" <> canonical0 then
        fail "fleet run %s: ranked report differs from the first run's" where)
    fleet_rows;
  let fleet_entries =
    non_empty_list "fleet_report.entries" (member "fleet_report" fleet "entries")
  in
  if List.length fleet_entries <> List.length expected_sites then
    fail "fleet report has %d signatures for %d seeded sites"
      (List.length fleet_entries)
      (List.length expected_sites);
  List.iter
    (fun site ->
      let alloc = fleet_str "fleet_report.expected_sites[]" site "alloc_site" in
      let want = fleet_int "fleet_report.expected_sites[]" site "count" in
      match
        List.filter
          (fun e ->
            fleet_str "fleet_report.entries[]" e "alloc_site" = alloc)
          fleet_entries
      with
      | [ e ] ->
        if fleet_int "fleet_report.entries[]" e "count" <> want then
          fail "fleet site %s has count %d (seeded %d)" alloc
            (fleet_int "fleet_report.entries[]" e "count")
            want
      | [] -> fail "seeded site %s missing from the fleet report" alloc
      | _ -> fail "seeded site %s appears under several signatures" alloc)
    expected_sites;
  (* Multi-day soak: the endurance contract.  The GC'd run must keep
     the detection guarantee perfectly (no missed probe, no reclaim of
     a rooted range) while staying flat against the unreclaimed run,
     which in turn must demonstrate the §3.4 problem — exhaustion, or
     at least a finite projection.  The ladder run must show the
     ordered response: gc strictly before tighten strictly before
     degrade, with the governor transition attributed to va-pressure. *)
  let soak = member "" doc "soak" in
  let soak_run k = member "soak" soak k in
  let soak_int path run k =
    match member path run k with
    | J.Int n -> n
    | _ -> fail "%s.%s is not an int" path k
  in
  let without_gc = soak_run "without_gc" in
  let with_gc = soak_run "with_gc" in
  let ladder = soak_run "ladder" in
  List.iter
    (fun (name, run) ->
      if soak_int ("soak." ^ name) run "total_probes" <= 0 then
        fail "soak %s ran no dangling probes" name;
      if soak_int ("soak." ^ name) run "missed_probes" <> 0 then
        fail "soak %s missed %d dangling probes" name
          (soak_int ("soak." ^ name) run "missed_probes");
      if soak_int ("soak." ^ name) run "reclaims_with_witness" <> 0 then
        fail "soak %s reclaimed %d witnessed (rooted) ranges" name
          (soak_int ("soak." ^ name) run "reclaims_with_witness"))
    [ ("without_gc", without_gc); ("with_gc", with_gc); ("ladder", ladder) ];
  (match member "soak.without_gc" without_gc "exhausted" with
   | J.Bool true -> ()
   | J.Bool false ->
     (match member "soak.without_gc" without_gc "projected_hours" with
      | J.Float h when h > 0.0 -> ()
      | J.Int h when h > 0 -> ()
      | _ ->
        fail
          "soak without reclamation neither exhausted its budget nor \
           projected a finite exhaustion time")
   | _ -> fail "soak.without_gc.exhausted is not a bool");
  if soak_int "soak.with_gc" with_gc "gc_runs" <= 0 then
    fail "soak with_gc never ran the GC";
  if soak_int "soak.with_gc" with_gc "reclaimed_pages" <= 0 then
    fail "soak with_gc reclaimed nothing";
  (match member "soak.with_gc" with_gc "exhausted" with
   | J.Bool false -> ()
   | _ -> fail "soak with_gc exhausted its VA budget despite the GC");
  let gc_tail = soak_int "soak.with_gc" with_gc "tail_delta_pages" in
  let raw_tail = soak_int "soak.without_gc" without_gc "tail_delta_pages" in
  if raw_tail <= 0 then fail "soak without_gc shows no steady-state VA growth";
  if 4 * gc_tail > raw_tail then
    fail "soak with_gc is not flat (tail %d pages/day vs %d unreclaimed)"
      gc_tail raw_tail;
  let ladder_actions =
    non_empty_list "soak.ladder.actions" (member "soak.ladder" ladder "actions")
  in
  let first_index want =
    let rec go i = function
      | [] -> None
      | a :: rest ->
        (match member "soak.ladder.actions[]" a "action" with
         | J.String s when s = want -> Some i
         | _ -> go (i + 1) rest)
    in
    go 0 ladder_actions
  in
  (match (first_index "gc", first_index "tighten", first_index "degrade") with
   | Some g, Some t, Some d when g < t && t < d -> ()
   | Some _, Some _, Some _ ->
     fail "soak ladder actions are out of order (want gc < tighten < degrade)"
   | g, t, d ->
     fail "soak ladder is missing actions (gc %b, tighten %b, degrade %b)"
       (g <> None) (t <> None) (d <> None));
  let ladder_governor =
    non_empty_list "soak.ladder.governor_transitions"
      (member "soak.ladder" ladder "governor_transitions")
  in
  if
    not
      (List.exists
         (fun tr ->
           match member "soak.ladder.governor_transitions[]" tr "reason" with
           | J.String "va-pressure" -> true
           | _ -> false)
         ladder_governor)
  then fail "soak ladder's governor transition is not attributed to va-pressure";
  Printf.printf
    "validate: %s OK (%d fastpath rows, %d elision rows, %d pool-inference \
     rows, %d epoch rows, %d tag-backend rows, %d resilience rows, %d farm \
     rows, %d fleet runs, %d soak probes)\n"
    file (List.length rows) (List.length se_rows) (List.length pi_rows)
    (List.length epoch_rows) (List.length tag_rows) (List.length res_rows)
    (List.length farm_rows) (List.length fleet_rows)
    (soak_int "soak.with_gc" with_gc "total_probes")
