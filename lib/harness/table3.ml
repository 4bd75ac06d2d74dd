type row = {
  name : string;
  native : float;
  llvm_base : float;
  pa_dummy : float;
  ours : float;
  ratio3 : float;
  paper_ratio3 : float option;
}

let row ?scale (batch : Workload.Spec.batch) =
  let cycles config =
    (Experiment.run_batch ?scale batch config).Experiment.cycles
  in
  let native = cycles Runtime.Scheme_spec.native in
  let llvm_base = cycles Runtime.Scheme_spec.llvm_base in
  let pa_dummy = cycles Runtime.Scheme_spec.pa_dummy in
  let ours = cycles Runtime.Scheme_spec.ours in
  {
    name = batch.Workload.Spec.name;
    native;
    llvm_base;
    pa_dummy;
    ours;
    ratio3 = ours /. llvm_base;
    paper_ratio3 = batch.Workload.Spec.paper.ratio1;
  }

let rows ?(scale_divisor = 1) () =
  List.map
    (fun (b : Workload.Spec.batch) ->
      row ~scale:(max 1 (b.default_scale / scale_divisor)) b)
    Workload.Catalog.olden

let render rows =
  let cells r =
    [
      r.name;
      Table.fmt_cycles r.native;
      Table.fmt_cycles r.llvm_base;
      Table.fmt_cycles r.pa_dummy;
      Table.fmt_cycles r.ours;
      Table.fmt_ratio r.ratio3;
      (match r.paper_ratio3 with Some x -> Table.fmt_ratio x | None -> "-");
    ]
  in
  Table.render
    ~headers:
      [ "Benchmark"; "native"; "LLVM"; "PA+dummy"; "ours"; "Ratio3"; "paper R3" ]
    (List.map cells rows)

let to_json rows =
  let open Telemetry.Json in
  List
    (List.map
       (fun r ->
         Obj
           [
             ("name", String r.name);
             ("native", Float r.native);
             ("llvm_base", Float r.llvm_base);
             ("pa_dummy", Float r.pa_dummy);
             ("ours", Float r.ours);
             ("ratio3", Float r.ratio3);
             ("paper_ratio3", Table.json_opt (fun x -> Float x) r.paper_ratio3);
           ])
       rows)
