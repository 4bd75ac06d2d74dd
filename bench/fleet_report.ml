(* Fleet crash-report study: the same seeded probe population served in
   recoverable (log-don't-abort) mode at 1/2/4/8 shards under both
   scheduler policies.  The contract validated downstream: the ranked
   report — its canonical string — is byte-identical across all eight
   runs, every run completes with zero unhandled detections, and every
   seeded injection site surfaces as exactly one signature whose count
   matches the seeded probe population. *)

module J = Telemetry.Json
module F = Danguard_farm.Farm
module Scheduler = Danguard_farm.Scheduler

let shard_counts = [ 1; 2; 4; 8 ]
let seed = 0x5eed
let probe_every = 4
let probe_sites = 4

(* The exact site population a run seeds, from the same pure function
   the farm probes with. *)
let expected_site_counts ~connections =
  let counts = Array.make probe_sites 0 in
  let conn = ref 0 in
  while !conn < connections do
    if !conn mod probe_every = 0 then begin
      let s = F.probe_site ~probe_sites ~probe_every !conn in
      counts.(s) <- counts.(s) + 1
    end;
    incr conn
  done;
  counts

let run ~smoke () =
  print_endline
    "\n== Fleet crash reports (recoverable mode, ranked by signature) ==";
  let connections = if smoke then 48 else 96 in
  let site_counts = expected_site_counts ~connections in
  let expected_probes = Array.fold_left ( + ) 0 site_counts in
  let runs =
    List.concat_map
      (fun policy ->
        List.map
          (fun shards ->
            ( policy,
              shards,
              F.run_server ~policy ~seed ~probe_every ~probe_sites
                ~recover:true ~config:Runtime.Scheme_spec.ours ~shards
                ~connections Workload.Servers.ghttpd ))
          shard_counts)
      [ Scheduler.Round_robin; Scheduler.Work_steal ]
  in
  let _, _, first = List.hd runs in
  print_string (Fleet.Crash.render first.F.crashes);
  Printf.printf "  (%d probes seeded over %d sites; %d runs compared)\n"
    expected_probes probe_sites (List.length runs);
  let rows =
    List.map
      (fun (policy, shards, (r : F.result)) ->
        J.Obj
          [
            ("policy", J.String (Scheduler.policy_label policy));
            ("shards", J.Int shards);
            ("detections", J.Int r.F.totals.F.detections);
            ( "total_reports",
              J.Int r.F.crashes.Fleet.Crash.total_reports );
            ( "signatures",
              J.Int (List.length r.F.crashes.Fleet.Crash.entries) );
            ("canonical", J.String (Fleet.Crash.canonical_string r.F.crashes));
          ])
      runs
  in
  let entries =
    List.map
      (fun (e : Fleet.Crash.entry) ->
        J.Obj
          [
            ("signature", J.String (Fleet.Crash.signature_hex e.Fleet.Crash.e_signature));
            ("kind", J.String e.Fleet.Crash.e_kind);
            ("alloc_site", J.String e.Fleet.Crash.e_alloc_site);
            ("free_site", J.String e.Fleet.Crash.e_free_site);
            ("count", J.Int e.Fleet.Crash.count);
          ])
      first.F.crashes.Fleet.Crash.entries
  in
  let expected_sites =
    List.filter_map
      (fun site ->
        if site_counts.(site) = 0 then None
        else
          Some
            (J.Obj
               [
                 ("alloc_site", J.String (Printf.sprintf "farm.c:1%02d" site));
                 ("count", J.Int site_counts.(site));
               ]))
      (List.init probe_sites Fun.id)
  in
  J.Obj
    [
      ("server", J.String "ghttpd");
      ("config", J.String "our-approach");
      ("connections", J.Int connections);
      ("probe_every", J.Int probe_every);
      ("probe_sites", J.Int probe_sites);
      ("seed", J.Int seed);
      ("expected_probes", J.Int expected_probes);
      ("expected_sites", J.List expected_sites);
      ("entries", J.List entries);
      ("rows", J.List rows);
    ]
