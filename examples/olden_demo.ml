(* olden_demo: the worst case, quantified.

     dune exec examples/olden_demo.exe [benchmark] [scale]

   Runs one Olden kernel (default: health, the paper's 11x worst case)
   under every configuration and prints the overhead decomposition the
   paper's Table 3 is built from: how much of the slowdown is the
   per-allocation syscalls (visible in the PA+dummy column) and how much
   is extra TLB pressure (the gap between PA+dummy and ours). *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "health" in
  let batch =
    match Workload.Catalog.find_batch name with
    | Some b -> b
    | None ->
      Printf.eprintf "unknown benchmark %s\n" name;
      exit 1
  in
  let scale =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2)
    else batch.Workload.Spec.default_scale
  in
  Printf.printf "%s (scale %d): %s\n\n" name scale
    batch.Workload.Spec.description;
  let measure config =
    let r = Harness.Experiment.run_batch ~scale batch config in
    (r.Harness.Experiment.cycles, r.Harness.Experiment.stats)
  in
  let base_cycles, _ = measure Runtime.Scheme_spec.llvm_base in
  List.iter
    (fun config ->
      let cycles, stats = measure config in
      Printf.printf
        "%-24s %9sM cycles  (%.2fx)   syscalls %6d   TLB misses %7d\n"
        (Harness.Experiment.config_label config)
        (Harness.Table.fmt_cycles cycles)
        (cycles /. base_cycles)
        (Vmm.Stats.total_syscalls stats)
        stats.Vmm.Stats.tlb_misses)
    [
      Runtime.Scheme_spec.native;
      Runtime.Scheme_spec.llvm_base;
      Runtime.Scheme_spec.pa;
      Runtime.Scheme_spec.pa_dummy;
      Runtime.Scheme_spec.ours;
      Runtime.Scheme_spec.ours_basic;
      Runtime.Scheme_spec.valgrind;
    ];
  print_endline
    "\nreading the decomposition (paper §4.4): the PA+dummy column isolates\n\
     the syscall-per-allocation cost; the remaining gap to 'our-approach'\n\
     is TLB pressure from one-object-per-virtual-page placement.  For\n\
     allocation-intensive code both are large — the paper recommends the\n\
     scheme for servers, and debugging-only use for programs like these."
