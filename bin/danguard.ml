(* danguard: command-line front end to the reproduction.  Run
   `danguard help` for the generated subcommand index. *)

open Cmdliner
module J = Telemetry.Json

(* Every subcommand registers through [cmd], so the group and the
   generated `danguard help` index can never drift apart. *)
let command_index : (string * string) list ref = ref []

let cmd name ~doc term =
  command_index := !command_index @ [ (name, doc) ];
  Cmd.v (Cmd.info name ~doc) term

(* ---- shared flag specs ----
   One definition per recurring flag, so spelling, docv and defaults are
   identical across subcommands. *)

(* The scheme vocabulary is the spec catalogue — names, parsing and the
   help listing all come from [Runtime.Scheme_spec], so the CLI can
   never drift from the library: any catalogue name parses, and any of
   them takes a "+recover" suffix. *)
let scheme_conv =
  let parse s =
    match Runtime.Scheme_spec.of_string s with
    | Some spec -> Ok spec
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "invalid scheme %S, expected one of %s (each also takes a \
               +recover suffix)"
              s
              (String.concat ", " (Runtime.Scheme_spec.names ()))))
  in
  Arg.conv (parse, fun fmt spec ->
      Format.pp_print_string fmt (Runtime.Scheme_spec.to_string spec))

let config_arg =
  let doc =
    Printf.sprintf
      "Protection scheme: %s (any name also takes a $(b,+recover) suffix to \
       log violations instead of aborting)."
      (String.concat ", " (Runtime.Scheme_spec.names ()))
  in
  Arg.(
    value
    & opt scheme_conv Runtime.Scheme_spec.ours
    & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let scale_divisor_arg =
  let doc = "Divide workload sizes by this factor (quick runs)." in
  Arg.(value & opt int 1 & info [ "d"; "scale-divisor" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON instead of table text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let seed_arg ~default ~doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"S" ~doc)

let scale_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "scale" ] ~docv:"N" ~doc:"Override the workload scale.")

(* ---- table ---- *)

let table_cmd =
  let which =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"TABLE"
           ~doc:"Table number (1, 2 or 3).")
  in
  let run which divisor json =
    let envelope n rows_json =
      J.to_string
        (J.Obj
           [
             ("table", J.Int n);
             ("scale_divisor", J.Int divisor);
             ("rows", rows_json);
           ])
    in
    match which with
    | 1 ->
      let rows = Harness.Table1.rows ~scale_divisor:divisor () in
      print_endline
        (if json then envelope 1 (Harness.Table1.to_json rows)
         else Harness.Table1.render rows);
      `Ok ()
    | 2 ->
      let rows = Harness.Table2.rows ~scale_divisor:divisor () in
      print_endline
        (if json then envelope 2 (Harness.Table2.to_json rows)
         else Harness.Table2.render rows);
      `Ok ()
    | 3 ->
      let rows = Harness.Table3.rows ~scale_divisor:divisor () in
      print_endline
        (if json then envelope 3 (Harness.Table3.to_json rows)
         else Harness.Table3.render rows);
      `Ok ()
    | n -> `Error (false, Printf.sprintf "no table %d (expected 1, 2 or 3)" n)
  in
  cmd "table" ~doc:"Regenerate a table from the paper's evaluation."
    Term.(ret (const run $ which $ scale_divisor_arg $ json_arg))

(* ---- addr-space ---- *)

let addr_space_cmd =
  let connections =
    Arg.(value & opt (some int) None
         & info [ "c"; "connections" ] ~docv:"N" ~doc:"Connections per server.")
  in
  let run connections =
    print_endline (Harness.Addr_space.render (Harness.Addr_space.rows ?connections ()))
  in
  cmd "addr-space" ~doc:"Per-connection virtual-address usage of the five servers (§4.3)."
    Term.(const run $ connections)

(* ---- detect ---- *)

let detect_cmd =
  let run () =
    let cells = Harness.Detection_matrix.run () in
    print_endline (Harness.Detection_matrix.render cells);
    print_endline "";
    List.iter
      (fun (c : Harness.Detection_matrix.cell) ->
        match c.Harness.Detection_matrix.outcome with
        | Workload.Fault_injection.Detected r ->
          Printf.printf "%-24s %-22s %s\n"
            (Harness.Experiment.config_label c.Harness.Detection_matrix.config)
            c.Harness.Detection_matrix.scenario
            (Shadow.Report.to_string r)
        | Workload.Fault_injection.Silent _
        | Workload.Fault_injection.Crashed _
        | Workload.Fault_injection.Crashed_degraded _ ->
          ())
      cells
  in
  cmd "detect" ~doc:"Run every injected temporal-error scenario under every scheme."
    Term.(const run $ const ())

(* ---- faults ---- *)

let faults_cmd =
  let target =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"WORKLOAD"
             ~doc:"Olden workload name, or $(b,all) for the whole campaign.")
  in
  let seed = seed_arg ~default:0x5eed ~doc:"Fault-plan PRNG seed." in
  let run target divisor seed json =
    let workloads =
      if target = "all" then Some Workload.Catalog.olden
      else
        match Workload.Catalog.find_batch target with
        | Some b -> Some [ b ]
        | None -> None
    in
    match workloads with
    | None -> `Error (false, "unknown workload " ^ target)
    | Some workloads ->
      let rows =
        Harness.Resilience.campaign ~scale_divisor:divisor ~seed ~workloads ()
      in
      if json then
        print_endline (J.to_string (Harness.Resilience.to_json rows))
      else print_string (Harness.Resilience.render rows);
      if Harness.Resilience.ok rows then `Ok ()
      else
        `Error
          ( false,
            "resilience invariants violated (undiagnosed crash or \
             unattributed detection miss)" )
  in
  cmd "faults" ~doc:"Syscall fault-injection campaign against the governed \
             shadow-page runtime: sweeps deterministic fault plans over the \
             Olden workloads and checks that no failure is undiagnosed and \
             every detection miss is attributable to a recorded degradation \
             window."
    Term.(ret (const run $ target $ scale_divisor_arg $ seed $ json_arg))

(* ---- exhaustion ---- *)

let exhaustion_cmd =
  let allocs_per_sec =
    Arg.(value & opt float 1e6
         & info [ "allocs-per-sec" ] ~docv:"R" ~doc:"Allocation rate.")
  in
  let va_bits =
    Arg.(value & opt int 47 & info [ "va-bits" ] ~docv:"B"
           ~doc:"User address-space bits.")
  in
  let run rate bits =
    Printf.printf
      "with 2^%d bytes of address space, 4K pages and %.0f allocations/s:\n\
       %.2f hours until virtual addresses run out with no reuse at all\n"
      bits rate
      (Shadow.Exhaustion.hours_until_exhaustion
         ~va_bytes:(2. ** float_of_int bits)
         ~page_bytes:4096 ~pages_per_second:rate)
  in
  cmd "exhaustion" ~doc:"The §3.4 address-space exhaustion model."
    Term.(const run $ allocs_per_sec $ va_bits)

(* ---- run ---- *)

let run_cmd =
  let workload_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD"
             ~doc:"Workload name (see $(b,danguard list)).")
  in
  let run name config scale json =
    let label = Harness.Experiment.config_label config in
    match Workload.Catalog.find_batch name with
    | Some batch ->
      let r = Harness.Experiment.run_batch ?scale batch config in
      if json then
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("workload", J.String name);
                  ("scheme", J.String label);
                  ("cycles", J.Float r.Harness.Experiment.cycles);
                  ("peak_frames", J.Int r.Harness.Experiment.peak_frames);
                  ("va_bytes", J.Int r.Harness.Experiment.va_bytes);
                  ( "extra_memory_bytes",
                    J.Int r.Harness.Experiment.extra_memory_bytes );
                  ( "total_syscalls",
                    J.Int (Vmm.Stats.total_syscalls r.Harness.Experiment.stats)
                  );
                  ("stats", Vmm.Stats.snapshot_to_json r.Harness.Experiment.stats);
                ]))
      else begin
        Printf.printf "%s under %s:\n  cycles: %sM\n  peak frames: %d\n  VA: %s\n  checker memory: %s\n"
          name label
          (Harness.Table.fmt_cycles r.Harness.Experiment.cycles)
          r.Harness.Experiment.peak_frames
          (Harness.Table.fmt_bytes r.Harness.Experiment.va_bytes)
          (Harness.Table.fmt_bytes r.Harness.Experiment.extra_memory_bytes);
        Printf.printf "  %s\n"
          (Format.asprintf "%a" Vmm.Stats.pp r.Harness.Experiment.stats)
      end;
      `Ok ()
    | None ->
      (match Workload.Catalog.find_server name with
       | Some server ->
         let r = Harness.Experiment.run_server server config in
         if json then
           print_endline
             (J.to_string
                (J.Obj
                   [
                     ("workload", J.String name);
                     ("scheme", J.String label);
                     ("connections", J.Int r.Runtime.Process.connections);
                     ( "mean_cycles_per_connection",
                       J.Float r.Runtime.Process.mean_cycles_per_connection );
                     ("total_cycles", J.Float r.Runtime.Process.total_cycles);
                     ( "max_va_bytes_per_connection",
                       J.Int r.Runtime.Process.max_va_bytes_per_connection );
                     ("detections", J.Int r.Runtime.Process.detections);
                     ( "stats",
                       Vmm.Stats.snapshot_to_json r.Runtime.Process.total_stats );
                   ]))
         else
           Printf.printf
             "%s under %s: %d connections, mean %sM cycles/connection, max VA %s\n"
             name label
             r.Runtime.Process.connections
             (Harness.Table.fmt_cycles r.Runtime.Process.mean_cycles_per_connection)
             (Harness.Table.fmt_bytes r.Runtime.Process.max_va_bytes_per_connection);
         `Ok ()
       | None -> `Error (false, "unknown workload " ^ name))
  in
  cmd "run" ~doc:"Run one workload under one scheme and print stats."
    Term.(ret (const run $ workload_name $ config_arg $ scale_arg $ json_arg))

(* ---- list ---- *)

let list_cmd =
  let run () =
    print_endline "utilities:";
    List.iter
      (fun (b : Workload.Spec.batch) ->
        Printf.printf "  %-10s %s\n" b.Workload.Spec.name
          b.Workload.Spec.description)
      Workload.Catalog.utilities;
    print_endline "olden:";
    List.iter
      (fun (b : Workload.Spec.batch) ->
        Printf.printf "  %-10s %s\n" b.Workload.Spec.name
          b.Workload.Spec.description)
      Workload.Catalog.olden;
    print_endline "servers:";
    List.iter
      (fun (s : Workload.Spec.server) ->
        Printf.printf "  %-10s %s\n" s.Workload.Spec.s_name
          s.Workload.Spec.s_description)
      Workload.Catalog.servers
  in
  cmd "list" ~doc:"List all workloads."
    Term.(const run $ const ())

(* ---- compile ---- *)

let compile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.mc" ~doc:"MiniC source file.")
  in
  let emit =
    Arg.(value & flag
         & info [ "emit" ] ~doc:"Print the pool-transformed program.")
  in
  let execute =
    Arg.(value & flag & info [ "run" ] ~doc:"Run the transformed program.")
  in
  let run file emit execute config =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Minic.Parser.parse source with
    | exception Minic.Parser.Parse_error { line; message } ->
      `Error (false, Printf.sprintf "%s:%d: %s" file line message)
    | exception Minic.Lexer.Lex_error { line; message } ->
      `Error (false, Printf.sprintf "%s:%d: %s" file line message)
    | program ->
      (match Minic.Pool_transform.transform program with
       | exception Minic.Typecheck.Type_error msg -> `Error (false, msg)
       | exception Minic.Pool_transform.Transform_error msg ->
         `Error (false, msg)
       | transformed, summary ->
         Printf.printf "pools inferred (%d sites, %d frees rewritten):\n"
           summary.Minic.Pool_transform.sites_rewritten
           summary.Minic.Pool_transform.frees_rewritten;
         List.iter
           (fun (d : Minic.Pool_transform.pool_desc) ->
             Printf.printf "  %-10s owner=%-12s struct=%-8s %s\n"
               d.Minic.Pool_transform.pool_var d.Minic.Pool_transform.owner
               (Option.value ~default:"?" d.Minic.Pool_transform.struct_name)
               (if d.Minic.Pool_transform.global then "(global, long-lived)"
                else ""))
           summary.Minic.Pool_transform.pools;
         if emit then begin
           print_endline "";
           print_endline (Minic.Pretty.program_to_string transformed)
         end;
         if not execute then `Ok ()
         else begin
           let scheme = Harness.Experiment.make_scheme config () in
           match Minic.Interp.run transformed scheme with
           | outcome ->
             List.iter (Printf.printf "print: %d\n") outcome.Minic.Interp.prints;
             Printf.printf "steps: %d, cycles: %sM\n" outcome.Minic.Interp.steps
               (Harness.Table.fmt_cycles
                  (Runtime.Scheme.cycles scheme));
             `Ok ()
           | exception Shadow.Report.Violation r ->
             Printf.printf "TEMPORAL ERROR DETECTED: %s\n"
               (Shadow.Report.to_string r);
             `Ok ()
           | exception Minic.Interp.Null_dereference msg ->
             `Error (false, Printf.sprintf "%s: null dereference in %s" file msg)
           | exception Minic.Interp.Runtime_error msg ->
             `Error (false, Printf.sprintf "%s: runtime error: %s" file msg)
         end)
  in
  cmd "compile" ~doc:"Parse, pool-transform and optionally run a MiniC program."
    Term.(ret (const run $ file $ emit $ execute $ config_arg))

(* ---- lint ---- *)

let lint_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.mc" ~doc:"MiniC source file.")
  in
  let sarif =
    Arg.(
      value & flag
      & info [ "sarif" ]
          ~doc:"Emit a SARIF 2.1.0 document (one result per flagged \
                finding); takes precedence over $(b,--json).")
  in
  (* Exit codes are part of the contract (pinned by make lint-smoke):
     0 clean / may-only, 2 malformed input, 3 at least one Must-UAF. *)
  let run file json sarif =
    let fail msg =
      prerr_endline msg;
      Stdlib.exit 2
    in
    let source = In_channel.with_open_text file In_channel.input_all in
    match Minic.Parser.parse source with
    | exception Minic.Parser.Parse_error { line; message } ->
      fail (Printf.sprintf "%s:%d: error: %s" file line message)
    | exception Minic.Lexer.Lex_error { line; message } ->
      fail (Printf.sprintf "%s:%d: error: %s" file line message)
    | program ->
      (match Minic.Dangling.analyze program with
       | exception Minic.Typecheck.Type_error msg ->
         fail (Printf.sprintf "%s: error: %s" file msg)
       | exception Minic.Ast.Semantic_error msg ->
         fail (Printf.sprintf "%s: error: %s" file msg)
       | result ->
         let d = Minic.Diagnostics.make ~file result in
         if sarif then
           print_endline (J.to_string_pretty (Minic.Diagnostics.to_sarif d))
         else if json then
           print_endline (J.to_string_pretty (Minic.Diagnostics.to_json d))
         else print_string (Minic.Diagnostics.render d);
         Stdlib.exit (Minic.Diagnostics.exit_code d))
  in
  cmd "lint" ~doc:"Static dangling-pointer analysis of a MiniC program: every \
             free and dereference gets a Safe / may-UAF / must-UAF verdict \
             and every malloc site a protection-elision verdict.  Exits 3 \
             if a must-UAF is found, 2 on malformed input."
    Term.(const run $ file $ json_arg $ sarif)

(* ---- pools ---- *)

let pools_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.mc" ~doc:"MiniC source file.")
  in
  let run file json =
    let fail msg =
      prerr_endline msg;
      Stdlib.exit 2
    in
    let source = In_channel.with_open_text file In_channel.input_all in
    match Minic.Parser.parse source with
    | exception Minic.Parser.Parse_error { line; message } ->
      fail (Printf.sprintf "%s:%d: error: %s" file line message)
    | exception Minic.Lexer.Lex_error { line; message } ->
      fail (Printf.sprintf "%s:%d: error: %s" file line message)
    | program ->
      (match Minic.Poolify.analyze program with
       | exception Minic.Typecheck.Type_error msg ->
         fail (Printf.sprintf "%s: error: %s" file msg)
       | exception Minic.Ast.Semantic_error msg ->
         fail (Printf.sprintf "%s: error: %s" file msg)
       | exception Minic.Pool_transform.Transform_error msg ->
         fail (Printf.sprintf "%s: error: %s" file msg)
       | result ->
         if json then
           print_endline
             (J.to_string_pretty (Minic.Poolify.to_json ~file result))
         else print_string (Minic.Poolify.render ~file result))
  in
  cmd "pools"
    ~doc:"Static pool inference over the field-sensitive DSA partition: \
          the pool each allocation site lands in, the function whose \
          scope owns the pool's create/destroy, type homogeneity, and a \
          per-site dangling-risk score.  Output is canonically ordered \
          (byte-identical across runs).  Exits 2 on malformed input."
    Term.(const run $ file $ json_arg)

(* ---- trace ---- *)

let trace_cmd =
  let record_workload =
    Arg.(value & opt (some string) None
         & info [ "record" ] ~docv:"WORKLOAD"
             ~doc:"Record the named workload's heap trace to stdout.")
  in
  let record_scale =
    Arg.(value & opt (some int) None
         & info [ "record-scale" ] ~docv:"N"
             ~doc:"Scale for --record (default: the workload's).")
  in
  let gen_length =
    Arg.(value & opt (some int) None
         & info [ "generate" ] ~docv:"N"
             ~doc:"Generate a random N-event trace to stdout instead of \
                   replaying one.")
  in
  let seed = seed_arg ~default:1 ~doc:"Generator seed." in
  let target =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD|TRACE"
             ~doc:"Workload name to trace through the telemetry sink, or a \
                   recorded trace file to replay.")
  in
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output file for the telemetry trace.")
  in
  let format =
    let formats = [ ("chrome", `Chrome); ("jsonl", `Jsonl); ("text", `Text) ] in
    Arg.(value & opt (enum formats) `Chrome
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Telemetry trace format: chrome (trace_event JSON, loads \
                   in Perfetto/about:tracing), jsonl, or text.")
  in
  let sample =
    Arg.(value & opt int 1
         & info [ "sample" ] ~docv:"N"
             ~doc:"Record every N-th samplable event (violations and pool \
                   lifecycle are always kept).")
  in
  let capacity =
    Arg.(value & opt int 65536
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Ring-buffer capacity; oldest events are evicted beyond \
                   this.")
  in
  let trace_workload batch record_scale config ~out ~format ~sample ~capacity =
    let sink = Telemetry.Sink.create ~capacity ~sample_every:sample () in
    let scheme =
      Harness.Experiment.make_scheme config
        ~pa_quality_gain:batch.Workload.Spec.pa_quality_gain ~trace:sink ()
    in
    let scale =
      Option.value record_scale ~default:batch.Workload.Spec.default_scale
    in
    batch.Workload.Spec.run scheme ~scale;
    let events = Telemetry.Sink.events sink in
    let body =
      match format with
      | `Chrome -> Telemetry.Export.to_chrome_string events
      | `Jsonl -> Telemetry.Export.to_jsonl events
      | `Text -> Telemetry.Export.to_text events
    in
    Out_channel.with_open_text out (fun oc ->
        Out_channel.output_string oc body);
    Printf.printf
      "%s under %s: wrote %d events to %s (%d recorded, %d evicted by ring, \
       sample 1/%d)\n"
      batch.Workload.Spec.name
      (Harness.Experiment.config_label config)
      (List.length events) out
      (Telemetry.Sink.recorded sink)
      (Telemetry.Sink.dropped sink)
      (Telemetry.Sink.sample_every sink)
  in
  let run record_workload record_scale gen_length seed target config out format
      sample capacity =
    match record_workload, gen_length, target with
    | Some name, _, _ ->
      (match Workload.Catalog.find_batch name with
       | None -> `Error (false, "unknown workload " ^ name)
       | Some batch ->
         let wrapper, get_trace =
           Workload.Trace.record
             (Runtime.Schemes.native (Vmm.Machine.create ()))
         in
         let scale =
           Option.value record_scale
             ~default:batch.Workload.Spec.default_scale
         in
         batch.Workload.Spec.run wrapper ~scale;
         print_string (Workload.Trace.to_string (get_trace ()));
         `Ok ())
    | None, Some length, _ ->
      print_string
        (Workload.Trace.to_string (Workload.Trace.generate ~seed ~length ()));
      `Ok ()
    | None, None, Some target ->
      (match Workload.Catalog.find_batch target with
       | _ when sample < 1 -> `Error (false, "--sample must be at least 1")
       | _ when capacity < 1 -> `Error (false, "--capacity must be at least 1")
       | Some batch ->
         trace_workload batch record_scale config ~out ~format ~sample
           ~capacity;
         `Ok ()
       | None ->
         if not (Sys.file_exists target) then
           `Error
             ( false,
               Printf.sprintf "%s is neither a workload nor a trace file"
                 target )
         else
           let text = In_channel.with_open_text target In_channel.input_all in
           (match Workload.Trace.of_string text with
            | Error e -> `Error (false, e)
            | Ok trace ->
              let scheme = Harness.Experiment.make_scheme config () in
              let result = Workload.Trace.replay trace scheme in
              Printf.printf
                "replayed %d events under %s: %d reads, %d violations, %sM cycles\n"
                (Workload.Trace.length trace)
                (Harness.Experiment.config_label config)
                (List.length result.Workload.Trace.reads)
                result.Workload.Trace.violations
                (Harness.Table.fmt_cycles (Runtime.Scheme.cycles scheme));
              `Ok ()))
    | None, None, None ->
      `Error
        ( true,
          "provide a workload to trace, a trace file to replay, --generate N, \
           or --record W" )
  in
  cmd "trace" ~doc:"Trace a workload's events through the telemetry sink, or \
             generate/record/replay scheme-independent allocation traces."
    Term.(
      ret
        (const run $ record_workload $ record_scale $ gen_length $ seed
         $ target $ config_arg $ out $ format $ sample $ capacity))

(* ---- demo ---- *)

let demo_cmd =
  let run () =
    print_endline "1. allocate and use an object under the full scheme:";
    let m = Vmm.Machine.create () in
    let scheme = Runtime.Schemes.shadow_pool m in
    let p = scheme.Runtime.Scheme.malloc ~site:"demo.c:12" 48 in
    scheme.Runtime.Scheme.store p ~width:8 42;
    Printf.printf "   p = %s, *p = %d\n"
      (Format.asprintf "%a" Vmm.Addr.pp p)
      (scheme.Runtime.Scheme.load p ~width:8);
    print_endline "2. free it:";
    scheme.Runtime.Scheme.free ~site:"demo.c:19" p;
    print_endline "   freed; physical page already reusable by the allocator";
    print_endline "3. use the dangling pointer:";
    (match scheme.Runtime.Scheme.load p ~width:8 with
     | v -> Printf.printf "   BUG: read %d\n" v
     | exception Shadow.Report.Violation r ->
       Printf.printf "   trapped by the MMU -> %s\n" (Shadow.Report.to_string r));
    print_endline "4. double-free it:";
    (match scheme.Runtime.Scheme.free ~site:"demo.c:31" p with
     | () -> print_endline "   BUG: not detected"
     | exception Shadow.Report.Violation r ->
       Printf.printf "   trapped by the MMU -> %s\n" (Shadow.Report.to_string r));
    Printf.printf
      "5. cost so far: %.0f simulated cycles, %d syscalls, %d physical pages\n"
      (Vmm.Machine.cycles m)
      (Vmm.Stats.total_syscalls (Vmm.Stats.snapshot m.Vmm.Machine.stats))
      (Vmm.Frame_table.live_frames m.Vmm.Machine.frames)
  in
  cmd "demo" ~doc:"A 30-second tour of the dangling-pointer detector."
    Term.(const run $ const ())

(* ---- farm ---- *)

let farm_cmd =
  let module Farm = Danguard_farm.Farm in
  let module Scheduler = Danguard_farm.Scheduler in
  let server_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SERVER"
             ~doc:"Server daemon name (see $(b,danguard list)).")
  in
  let shards =
    Arg.(value & opt int 4
         & info [ "shards" ] ~docv:"N" ~doc:"Number of shard domains.")
  in
  let connections =
    Arg.(value & opt (some int) None
         & info [ "c"; "connections" ] ~docv:"M"
             ~doc:"Total connections to serve (default: the server's).")
  in
  let probe_every =
    Arg.(value & opt int 0
         & info [ "probe-every" ] ~docv:"K"
             ~doc:"Append a dangling-use probe to every K-th connection \
                   (0 = none).")
  in
  let policy =
    let policies =
      [ ("round-robin", Scheduler.Round_robin);
        ("work-steal", Scheduler.Work_steal) ]
    in
    Arg.(value & opt (enum policies) Scheduler.Round_robin
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Connection scheduler: round-robin or work-steal.")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace of the run to $(docv), one lane \
                   per shard (open in about://tracing or Perfetto).")
  in
  let run name shards connections probe_every policy config seed json
      trace_file =
    if shards < 1 then `Error (false, "--shards must be at least 1")
    else
      match Workload.Catalog.find_server name with
      | None -> `Error (false, "unknown server " ^ name)
      | Some server ->
        let trace_capacity = if trace_file = None then 0 else 65536 in
        let r =
          Farm.run_server ~policy ~seed ~probe_every ~trace_capacity ~config
            ?connections ~shards server
        in
        (match trace_file with
         | None -> ()
         | Some path ->
           (* pid 0 renders oddly in trace viewers; lanes are 1-based *)
           let groups =
             List.map
               (fun (shard, events) -> (shard + 1, 1, events))
               r.Farm.traces
           in
           Out_channel.with_open_text path (fun oc ->
               Out_channel.output_string oc
                 (Telemetry.Export.to_chrome_string_grouped
                    ~name_of_pid:(fun pid -> Printf.sprintf "shard %d" (pid - 1))
                    groups)));
        let label = Harness.Experiment.config_label config in
        if json then
          print_endline
            (J.to_string
               (J.Obj
                  [
                    ("server", J.String name);
                    ("scheme", J.String label);
                    ("shards", J.Int r.Farm.shards);
                    ("policy", J.String (Scheduler.policy_label r.Farm.policy));
                    ("seed", J.Int r.Farm.seed);
                    ("connections", J.Int r.Farm.totals.Farm.connections);
                    ("detections", J.Int r.Farm.totals.Farm.detections);
                    ("syscalls", J.Int r.Farm.totals.Farm.syscalls);
                    ("max_va_bytes", J.Int r.Farm.totals.Farm.max_va_bytes);
                    ("makespan_cycles", J.Float r.Farm.makespan_cycles);
                    ("throughput_conn_per_mcycle", J.Float r.Farm.throughput);
                    ("latency_p50", J.Float r.Farm.latency.Harness.Latency.q50);
                    ("latency_p95", J.Float r.Farm.latency.Harness.Latency.q95);
                    ("latency_p99", J.Float r.Farm.latency.Harness.Latency.q99);
                    ( "per_shard",
                      J.List
                        (List.map
                           (fun (sh : Farm.shard_report) ->
                             J.Obj
                               [
                                 ("shard", J.Int sh.Farm.shard);
                                 ("served", J.Int sh.Farm.served);
                                 ("busy_cycles", J.Float sh.Farm.busy_cycles);
                                 ("detections", J.Int sh.Farm.shard_detections);
                               ])
                           r.Farm.per_shard) );
                    ("stats", Vmm.Stats.snapshot_to_json r.Farm.totals.Farm.stats);
                    ( "syscalls_per_op",
                      match Vmm.Stats.syscalls_per_op r.Farm.totals.Farm.stats with
                      | Some v -> J.Float v
                      | None -> J.Null );
                  ]))
        else begin
          Printf.printf
            "%s under %s: %d connections over %d shards (%s, seed 0x%x)\n"
            name label r.Farm.totals.Farm.connections r.Farm.shards
            (Scheduler.policy_label r.Farm.policy)
            r.Farm.seed;
          List.iter
            (fun (sh : Farm.shard_report) ->
              Printf.printf
                "  shard %d: %3d connections, %sM cycles, %d detections\n"
                sh.Farm.shard sh.Farm.served
                (Harness.Table.fmt_cycles sh.Farm.busy_cycles)
                sh.Farm.shard_detections)
            r.Farm.per_shard;
          Printf.printf
            "  makespan %sM cycles, throughput %.3f conn/Mcycle\n"
            (Harness.Table.fmt_cycles r.Farm.makespan_cycles)
            r.Farm.throughput;
          Printf.printf
            "  detections %d, syscalls %d, latency p50 %sM p99 %sM cycles\n"
            r.Farm.totals.Farm.detections r.Farm.totals.Farm.syscalls
            (Harness.Table.fmt_cycles r.Farm.latency.Harness.Latency.q50)
            (Harness.Table.fmt_cycles r.Farm.latency.Harness.Latency.q99)
        end;
        `Ok ()
  in
  cmd "farm"
    ~doc:"Serve one of the paper's daemons across N shard domains and \
          report merged throughput, detection and latency statistics."
    Term.(
      ret
        (const run $ server_name $ shards $ connections $ probe_every $ policy
         $ config_arg
         $ seed_arg ~default:0x5eed ~doc:"Connection-shuffle seed."
         $ json_arg $ trace_file))

(* ---- report ---- *)

let report_cmd =
  let module Farm = Danguard_farm.Farm in
  let module Scheduler = Danguard_farm.Scheduler in
  let server_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SERVER"
             ~doc:"Server daemon name (see $(b,danguard list)).")
  in
  let shards =
    Arg.(value & opt int 4
         & info [ "shards" ] ~docv:"N" ~doc:"Number of shard domains.")
  in
  let connections =
    Arg.(value & opt (some int) None
         & info [ "c"; "connections" ] ~docv:"M"
             ~doc:"Total connections to serve (default: the server's).")
  in
  let probe_every =
    Arg.(value & opt int 4
         & info [ "probe-every" ] ~docv:"K"
             ~doc:"Seed a dangling-use probe on every K-th connection \
                   (0 = none).")
  in
  let probe_sites =
    Arg.(value & opt int 4
         & info [ "sites" ] ~docv:"S"
             ~doc:"Spread the probes over S distinct injection sites, \
                   each its own bug flavour.")
  in
  let policy =
    let policies =
      [ ("round-robin", Scheduler.Round_robin);
        ("work-steal", Scheduler.Work_steal) ]
    in
    Arg.(value & opt (enum policies) Scheduler.Round_robin
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Connection scheduler: round-robin or work-steal.")
  in
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Emit the merged metrics registry (including the \
                   per-signature crash counters) in Prometheus text \
                   exposition format instead of the dashboard.")
  in
  let run name shards connections probe_every probe_sites policy config seed
      json prometheus =
    if shards < 1 then `Error (false, "--shards must be at least 1")
    else if probe_sites < 1 then `Error (false, "--sites must be at least 1")
    else
      match Workload.Catalog.find_server name with
      | None -> `Error (false, "unknown server " ^ name)
      | Some server ->
        let r =
          Farm.run_server ~policy ~seed ~probe_every ~probe_sites
            ~recover:true ~config ?connections ~shards server
        in
        let served = r.Farm.totals.Farm.connections in
        let expected_probes =
          if probe_every <= 0 then 0 else (served + probe_every - 1) / probe_every
        in
        let label = Harness.Experiment.config_label config in
        let gauge name =
          int_of_float
            (Telemetry.Metrics.gauge_value
               (Telemetry.Metrics.gauge r.Farm.registry name))
        in
        let endurance_json =
          J.Obj
            [
              ("va_pages_used", J.Int (gauge "shadow.va_pages_used"));
              ("va_pages_reclaimed", J.Int (gauge "shadow.va_pages_reclaimed"));
              ("gc_pinned_ranges", J.Int (gauge "shadow.gc_pinned_ranges"));
            ]
        in
        if prometheus then
          print_string (Telemetry.Export.to_prometheus r.Farm.registry)
        else if json then
          print_endline
            (J.to_string
               (J.Obj
                  [
                    ("server", J.String name);
                    ("scheme", J.String label);
                    ("shards", J.Int r.Farm.shards);
                    ("policy", J.String (Scheduler.policy_label r.Farm.policy));
                    ("seed", J.Int r.Farm.seed);
                    ("connections", J.Int served);
                    ("probe_every", J.Int probe_every);
                    ("probe_sites", J.Int probe_sites);
                    ("detections", J.Int r.Farm.totals.Farm.detections);
                    ("endurance", endurance_json);
                    ("derived", Telemetry.Export.derived_to_json r.Farm.registry);
                    ("report", Fleet.Crash.to_json r.Farm.crashes);
                  ]))
        else begin
          Printf.printf
            "fleet crash report: %s under %s, %d connections over %d shards \
             (%s, seed 0x%x)\n\n"
            name label served r.Farm.shards
            (Scheduler.policy_label r.Farm.policy)
            r.Farm.seed;
          (match Vmm.Stats.syscalls_per_op r.Farm.totals.Farm.stats with
           | Some v ->
             Printf.printf "protection syscalls/op: %.4f\n" v
           | None -> ());
          Printf.printf
            "shadow VA: %d pages used (worst connection), %d reclaimed, %d \
             pinned\n\n"
            (gauge "shadow.va_pages_used")
            (gauge "shadow.va_pages_reclaimed")
            (gauge "shadow.gc_pinned_ranges");
          print_string (Fleet.Crash.render r.Farm.crashes)
        end;
        (* Self-checks: the recoverable wrapper must keep every child
           alive, and a seeded run must surface every probe. *)
        if r.Farm.totals.Farm.detections > 0 then
          `Error
            ( false,
              Printf.sprintf "%d violation(s) escaped recovery and killed \
                              their connection"
                r.Farm.totals.Farm.detections )
        else if
          probe_every > 0
          && r.Farm.crashes.Fleet.Crash.total_reports < expected_probes
        then
          `Error
            ( false,
              Printf.sprintf "expected %d probe report(s), got %d"
                expected_probes r.Farm.crashes.Fleet.Crash.total_reports )
        else `Ok ()
  in
  cmd "report"
    ~doc:"Run a server farm in recoverable (log-don't-abort) mode with \
          seeded dangling-use probes and print the ranked fleet crash \
          dashboard: unique stack signatures by report count."
    Term.(
      ret
        (const run $ server_name $ shards $ connections $ probe_every
         $ probe_sites $ policy $ config_arg
         $ seed_arg ~default:0x5eed ~doc:"Connection-shuffle seed."
         $ json_arg $ prometheus))

(* ---- soak ---- *)

let soak_cmd =
  let days =
    Arg.(value & opt int 3 & info [ "days" ] ~docv:"D" ~doc:"Simulated days.")
  in
  let connections =
    Arg.(value & opt int 120
         & info [ "c"; "connections" ] ~docv:"N" ~doc:"Connections per day.")
  in
  let server =
    Arg.(value & opt string "ghttpd"
         & info [ "server" ] ~docv:"S"
             ~doc:"Server daemon model (see $(b,danguard list)).")
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget-pages" ] ~docv:"P"
             ~doc:"VA budget in pages (default: days x connections).")
  in
  let no_reclaim =
    Arg.(value & flag
         & info [ "no-reclaim" ]
             ~doc:"Disarm the GC and reuse policy: demonstrate the §3.4 \
                   exhaustion problem instead of the fix (the endurance \
                   gates are skipped).")
  in
  let governor =
    Arg.(value & flag
         & info [ "governor" ]
             ~doc:"Arm the degradation ladder as the last-resort response \
                   to VA pressure.")
  in
  let run days connections server budget no_reclaim governor seed json =
    let config =
      {
        Harness.Soak.default_config with
        Harness.Soak.days;
        connections_per_day = connections;
        server;
        seed;
        budget_pages =
          Option.value budget ~default:(days * connections);
        endurance = not no_reclaim;
        governor;
      }
    in
    match Harness.Soak.run ~config () with
    | exception Invalid_argument m -> `Error (false, m)
    | r ->
      if json then
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("server", J.String server);
                  ("days", J.Int days);
                  ("connections_per_day", J.Int connections);
                  ("budget_pages", J.Int config.Harness.Soak.budget_pages);
                  ("endurance", J.Bool (not no_reclaim));
                  ("total_probes", J.Int r.Harness.Soak.total_probes);
                  ("missed_probes", J.Int r.Harness.Soak.missed_probes);
                  ( "reclaims_with_witness",
                    J.Int r.Harness.Soak.reclaims_with_witness );
                  ("gc_runs", J.Int r.Harness.Soak.gc_runs);
                  ("reclaimed_pages", J.Int r.Harness.Soak.reclaimed_pages);
                  ("pinned_final", J.Int r.Harness.Soak.pinned_final);
                  ("exhausted", J.Bool r.Harness.Soak.exhausted);
                  ( "projected_hours",
                    match r.Harness.Soak.projected_hours with
                    | Some h -> J.Float h
                    | None -> J.Null );
                  ( "first_day_delta_pages",
                    J.Int r.Harness.Soak.first_day_delta_pages );
                  ("tail_delta_pages", J.Int r.Harness.Soak.tail_delta_pages);
                  ( "rows",
                    J.List
                      (List.map
                         (fun (row : Harness.Soak.day_row) ->
                           J.Obj
                             [
                               ("day", J.Int row.Harness.Soak.day);
                               ( "va_pages_used",
                                 J.Int row.Harness.Soak.va_pages_used );
                               ("gc_runs", J.Int row.Harness.Soak.gc_runs);
                               ( "probes_detected",
                                 J.Int row.Harness.Soak.probes_detected );
                               ("mode", J.String row.Harness.Soak.mode);
                             ])
                         r.Harness.Soak.rows) );
                ]))
      else begin
        Printf.printf
          "soak: %s, %d day(s) x %d connections, budget %d pages%s\n"
          server days connections config.Harness.Soak.budget_pages
          (if no_reclaim then " (reclamation OFF)" else "");
        List.iter
          (fun (row : Harness.Soak.day_row) ->
            Printf.printf
              "  day %2d: va %5d pages (+%d), %d gc runs, %d/%d probes \
               caught, pinned %d, mode %s\n"
              row.Harness.Soak.day row.Harness.Soak.va_pages_used
              row.Harness.Soak.delta_pages row.Harness.Soak.gc_runs
              row.Harness.Soak.probes_detected row.Harness.Soak.probes
              row.Harness.Soak.pinned_ranges row.Harness.Soak.mode)
          r.Harness.Soak.rows;
        Printf.printf
          "  probes %d (missed %d), reclaims-with-witness %d, reclaimed %d \
           pages over %d gc runs\n"
          r.Harness.Soak.total_probes r.Harness.Soak.missed_probes
          r.Harness.Soak.reclaims_with_witness r.Harness.Soak.reclaimed_pages
          r.Harness.Soak.gc_runs;
        match (r.Harness.Soak.exhausted, r.Harness.Soak.projected_hours) with
        | true, _ -> print_endline "  VA budget EXHAUSTED"
        | false, Some h ->
          Printf.printf "  projected exhaustion in %.0f simulated hours\n" h
        | false, None -> print_endline "  flat: never exhausts at this rate"
      end;
      (* The endurance gates (CI calls this via make soak-smoke): the
         detection guarantee must be perfect, reclamation must never
         touch a rooted range, and with the GC armed the steady state
         must be much flatter than the warm-up day. *)
      if r.Harness.Soak.missed_probes > 0 then
        `Error
          ( false,
            Printf.sprintf "%d dangling probe(s) went undetected"
              r.Harness.Soak.missed_probes )
      else if r.Harness.Soak.reclaims_with_witness > 0 then
        `Error
          ( false,
            Printf.sprintf "GC reclaimed %d rooted (witnessed) range(s)"
              r.Harness.Soak.reclaims_with_witness )
      else if no_reclaim then `Ok ()
      else if r.Harness.Soak.exhausted then
        `Error (false, "VA budget exhausted despite the GC")
      else if
        (* the flatness gate needs a tail to compare against the first
           day; a 1-day run has only the warm-up delta *)
        r.Harness.Soak.cfg.Harness.Soak.days > 1
        && r.Harness.Soak.tail_delta_pages > 0
        && 2 * r.Harness.Soak.tail_delta_pages
           > r.Harness.Soak.first_day_delta_pages
      then
        `Error
          ( false,
            Printf.sprintf
              "VA not flat: final day grew %d pages (first day %d)"
              r.Harness.Soak.tail_delta_pages
              r.Harness.Soak.first_day_delta_pages )
      else `Ok ()
  in
  cmd "soak"
    ~doc:"Multi-day uptime soak over a server model (§3.4 endurance): \
          heavy-tailed session churn against a VA budget, with dangling \
          probes planted in simulated roots.  With reclamation armed \
          (default) the conservative GC must keep VA flat while every \
          probe still traps; exits nonzero if a probe is missed, a rooted \
          range is reclaimed, or VA keeps growing."
    Term.(
      ret
        (const run $ days $ connections $ server $ budget $ no_reclaim
         $ governor
         $ seed_arg ~default:42 ~doc:"Churn PRNG seed."
         $ json_arg))

(* ---- help ---- *)

let help_cmd =
  (* Squeeze the (possibly multi-line) Cmd.info doc into the one-line
     summary the index prints: first sentence, single spaces. *)
  let summary doc =
    let squeezed =
      String.concat " "
        (List.filter
           (fun w -> w <> "")
           (String.split_on_char ' '
              (String.map (function '\n' -> ' ' | c -> c) doc)))
    in
    (* cut at a sentence-ending period only (".3" in "§4.3" is not one) *)
    let n = String.length squeezed in
    let rec cut i =
      if i >= n then squeezed
      else if squeezed.[i] = '.' && (i = n - 1 || squeezed.[i + 1] = ' ') then
        String.sub squeezed 0 (i + 1)
      else cut (i + 1)
    in
    cut 0
  in
  let run () =
    print_endline "danguard subcommands:";
    List.iter
      (fun (name, doc) -> Printf.printf "  %-12s %s\n" name (summary doc))
      !command_index;
    print_endline "";
    print_endline "schemes (--scheme NAME):";
    List.iter
      (fun spec ->
        Printf.printf "  %-14s %s\n"
          (Runtime.Scheme_spec.to_string spec)
          (Runtime.Scheme_spec.description spec))
      Runtime.Scheme_spec.all
  in
  cmd "help" ~doc:"List every subcommand with a one-line summary."
    Term.(const run $ const ())

let main_cmd =
  let doc =
    "MMU-based detection of all dangling pointer uses (Dhurjati & Adve, \
     DSN 2006) on a simulated machine"
  in
  Cmd.group
    (Cmd.info "danguard" ~version:"1.0.0" ~doc)
    [
      table_cmd; addr_space_cmd; detect_cmd; faults_cmd; exhaustion_cmd;
      run_cmd; list_cmd; compile_cmd; lint_cmd; pools_cmd; trace_cmd; demo_cmd;
      farm_cmd; report_cmd; soak_cmd; help_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
