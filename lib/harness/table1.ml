type row = {
  name : string;
  loc : int option;
  native : float;
  llvm_base : float;
  pa : float;
  pa_dummy : float;
  ours : float;
  ratio1 : float;
  ratio2 : float;
  paper_ratio1 : float option;
}

let make_row ~name ~loc ~paper_ratio1 measure =
  let native = measure Runtime.Scheme_spec.native in
  let llvm_base = measure Runtime.Scheme_spec.llvm_base in
  let pa = measure Runtime.Scheme_spec.pa in
  let pa_dummy = measure Runtime.Scheme_spec.pa_dummy in
  let ours = measure Runtime.Scheme_spec.ours in
  {
    name;
    loc;
    native;
    llvm_base;
    pa;
    pa_dummy;
    ours;
    ratio1 = ours /. llvm_base;
    ratio2 = ours /. native;
    paper_ratio1;
  }

let utility_row ?scale (batch : Workload.Spec.batch) =
  make_row ~name:batch.Workload.Spec.name ~loc:batch.Workload.Spec.paper.loc
    ~paper_ratio1:batch.Workload.Spec.paper.ratio1 (fun config ->
      (Experiment.run_batch ?scale batch config).Experiment.cycles)

let server_row ?connections (server : Workload.Spec.server) =
  make_row ~name:server.Workload.Spec.s_name
    ~loc:server.Workload.Spec.s_paper.loc
    ~paper_ratio1:server.Workload.Spec.s_paper.ratio1 (fun config ->
      (Experiment.run_server ?connections server config)
        .Runtime.Process.mean_cycles_per_connection)

let rows ?(scale_divisor = 1) () =
  List.map
    (fun (b : Workload.Spec.batch) ->
      utility_row ~scale:(max 1 (b.default_scale / scale_divisor)) b)
    Workload.Catalog.utilities
  @ List.map
      (fun (s : Workload.Spec.server) ->
        server_row
          ~connections:(max 2 (s.s_default_connections / scale_divisor))
          s)
      Workload.Catalog.servers

let render rows =
  let cells r =
    [
      r.name;
      (match r.loc with Some l -> string_of_int l | None -> "-");
      Table.fmt_cycles r.native;
      Table.fmt_cycles r.llvm_base;
      Table.fmt_cycles r.pa;
      Table.fmt_cycles r.pa_dummy;
      Table.fmt_cycles r.ours;
      Table.fmt_ratio r.ratio1;
      Table.fmt_ratio r.ratio2;
      (match r.paper_ratio1 with Some x -> Table.fmt_ratio x | None -> "-");
    ]
  in
  Table.render
    ~headers:
      [
        "Benchmark"; "LOC"; "native"; "LLVM"; "PA"; "PA+dummy"; "ours";
        "Ratio1"; "Ratio2"; "paper R1";
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
             ("loc", Table.json_opt (fun l -> Int l) r.loc);
             ("native", Float r.native);
             ("llvm_base", Float r.llvm_base);
             ("pa", Float r.pa);
             ("pa_dummy", Float r.pa_dummy);
             ("ours", Float r.ours);
             ("ratio1", Float r.ratio1);
             ("ratio2", Float r.ratio2);
             ("paper_ratio1", Table.json_opt (fun x -> Float x) r.paper_ratio1);
           ])
       rows)
