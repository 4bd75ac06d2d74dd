(* Multi-day soak (§3.4 endurance): the same server-uptime simulation
   run three ways.

   1. no-reclaim — the reuse policy disarmed: shadow VA burns linearly
      and the run either exhausts its page budget or projects a finite
      time-to-exhaustion at the observed burn rate.
   2. with-gc — the conservative GC armed through the reuse policy and
      the watermark escalation: steady-state VA is flat, and the
      differential oracle holds — every dangling probe still traps
      (missed_probes = 0) and no rooted range was ever reclaimed
      (reclaims_with_witness = 0).
   3. ladder — a deliberately tiny budget with the governor wired in,
      demonstrating the ordered §3.4 response: GC first, then reuse
      tightening, then (only then) ladder degradation, all visible in
      the endurance action log and the governor's va-pressure
      transition.

   The validator pins all three: oracle zeros on run 2, flatness of
   run 2 against run 1, exhaustion-or-projection on run 1, and strict
   gc < tighten < degrade ordering on run 3. *)

module J = Telemetry.Json

let print_result name (r : Harness.Soak.result) =
  Printf.printf "  %s:\n" name;
  Printf.printf
    "    day | va pages |  +day | freed | pinned | gc | reclaimed | probes \
     (ok) | mode\n";
  List.iter
    (fun (row : Harness.Soak.day_row) ->
      Printf.printf "    %3d | %8d | %5d | %5d | %6d | %2d | %9d | %6d (%d) | %s\n"
        row.Harness.Soak.day row.Harness.Soak.va_pages_used
        row.Harness.Soak.delta_pages row.Harness.Soak.freed_shadow_pages
        row.Harness.Soak.pinned_ranges row.Harness.Soak.gc_runs
        row.Harness.Soak.reclaimed_pages row.Harness.Soak.probes
        row.Harness.Soak.probes_detected row.Harness.Soak.mode)
    r.Harness.Soak.rows;
  Printf.printf
    "    probes %d (missed %d)  reclaims-with-witness %d  gc runs %d  \
     reclaimed %d pages  pinned %d\n"
    r.Harness.Soak.total_probes r.Harness.Soak.missed_probes
    r.Harness.Soak.reclaims_with_witness r.Harness.Soak.gc_runs
    r.Harness.Soak.reclaimed_pages r.Harness.Soak.pinned_final;
  (match (r.Harness.Soak.exhausted, r.Harness.Soak.projected_hours) with
  | true, _ -> Printf.printf "    VA budget EXHAUSTED\n"
  | false, Some h ->
    Printf.printf "    projected exhaustion in %.1f simulated hours\n" h
  | false, None -> Printf.printf "    flat: never exhausts at this rate\n");
  (if r.Harness.Soak.actions <> [] then
     (* the log is mostly repeated gc ticks: print each action's first
        firing (in log order) plus its count *)
     let seen = Hashtbl.create 4 in
     List.iter
       (fun (action, level, pages) ->
         match Hashtbl.find_opt seen action with
         | Some (first, n) -> Hashtbl.replace seen action (first, n + 1)
         | None -> Hashtbl.replace seen action ((level, pages), 1))
       r.Harness.Soak.actions;
     let order =
       List.filter_map
         (fun a -> Option.map (fun v -> (a, v)) (Hashtbl.find_opt seen a))
         [ "gc"; "tighten"; "degrade" ]
     in
     Printf.printf "    actions: %s\n"
       (String.concat " -> "
          (List.map
             (fun (action, ((level, pages), n)) ->
               Printf.sprintf "%s x%d (first @%s, %dp)" action n level pages)
             order)));
  if r.Harness.Soak.governor_transitions <> [] then
    Printf.printf "    governor: %s\n"
      (String.concat ", "
         (List.map
            (fun (from_mode, to_mode, reason) ->
              Printf.sprintf "%s->%s (%s)" from_mode to_mode reason)
            r.Harness.Soak.governor_transitions))

let run ~smoke () =
  print_endline "\n== Multi-day soak: VA endurance with and without the GC ==";
  let days = if smoke then 3 else 6 in
  let connections_per_day = if smoke then 120 else 400 in
  let base =
    {
      Harness.Soak.default_config with
      Harness.Soak.days;
      connections_per_day;
      (* sized so the unreclaimed run hits the wall mid-run *)
      budget_pages = days * connections_per_day;
    }
  in
  let without_gc =
    Harness.Soak.run
      ~config:{ base with Harness.Soak.endurance = false }
      ()
  in
  print_result "no-reclaim" without_gc;
  let with_gc = Harness.Soak.run ~config:base () in
  print_result "with-gc" with_gc;
  (* The ladder demo: a budget small enough that the monotone VA counter
     walks through every watermark during day one, with the governor
     armed so the degrade stage is real. *)
  let ladder =
    Harness.Soak.run
      ~config:
        {
          base with
          Harness.Soak.days = 1;
          connections_per_day = 120;
          budget_pages = 40;
          governor = true;
        }
      ()
  in
  print_result "ladder" ladder;
  J.Obj
    [
      ("without_gc", Harness.Soak.to_json without_gc);
      ("with_gc", Harness.Soak.to_json with_gc);
      ("ladder", Harness.Soak.to_json ladder);
    ]
