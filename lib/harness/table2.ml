type row = {
  name : string;
  ours_cycles : float;
  valgrind_cycles : float;
  ours_slowdown : float;
  valgrind_slowdown : float;
  paper_valgrind_slowdown : float option;
}

let row ?scale (batch : Workload.Spec.batch) =
  let cycles config =
    (Experiment.run_batch ?scale batch config).Experiment.cycles
  in
  let base = cycles Runtime.Scheme_spec.llvm_base in
  let ours = cycles Runtime.Scheme_spec.ours in
  let valgrind = cycles Runtime.Scheme_spec.valgrind in
  {
    name = batch.Workload.Spec.name;
    ours_cycles = ours;
    valgrind_cycles = valgrind;
    ours_slowdown = ours /. base;
    valgrind_slowdown = valgrind /. base;
    paper_valgrind_slowdown = batch.Workload.Spec.paper.valgrind_ratio;
  }

let rows ?(scale_divisor = 1) () =
  List.map
    (fun (b : Workload.Spec.batch) ->
      row ~scale:(max 1 (b.default_scale / scale_divisor)) b)
    Workload.Catalog.utilities

let render rows =
  let cells r =
    [
      r.name;
      Table.fmt_cycles r.ours_cycles;
      Table.fmt_cycles r.valgrind_cycles;
      Table.fmt_ratio r.ours_slowdown;
      Table.fmt_ratio r.valgrind_slowdown;
      (match r.paper_valgrind_slowdown with
       | Some x -> Table.fmt_ratio x
       | None -> "-");
    ]
  in
  Table.render
    ~headers:
      [
        "Benchmark"; "ours (Mcy)"; "valgrind (Mcy)"; "our slowdown";
        "valgrind slowdown"; "paper valgrind";
      ]
    (List.map cells rows)

let to_json rows =
  let open Telemetry.Json in
  List
    (List.map
       (fun r ->
         Obj
           [
             ("name", String r.name);
             ("ours_cycles", Float r.ours_cycles);
             ("valgrind_cycles", Float r.valgrind_cycles);
             ("ours_slowdown", Float r.ours_slowdown);
             ("valgrind_slowdown", Float r.valgrind_slowdown);
             ( "paper_valgrind_slowdown",
               Table.json_opt (fun x -> Float x) r.paper_valgrind_slowdown );
           ])
       rows)
