type row = {
  name : string;
  connections : int;
  wasted_pages_per_connection : float;
  recycled_pages_per_connection : float;
  va_bytes_per_connection : int;
  note : string;
}

let note_for = function
  | "ghttpd" -> "1 alloc/connection; ~no global-pool wastage"
  | "ftpd" -> "5-6 global allocs/command; realpath pool reused"
  | "telnetd" -> "45 setup allocs, none afterwards"
  | _ -> ""

let measure ?connections (server : Workload.Spec.server) =
  let connections =
    Option.value connections ~default:server.Workload.Spec.s_default_connections
  in
  let wasted = ref 0 in
  let recycled = ref 0 in
  let max_va = ref 0 in
  for i = 0 to connections - 1 do
    let scheme = Experiment.make_scheme Runtime.Scheme_spec.ours () in
    server.Workload.Spec.handler i scheme;
    (match Runtime.Schemes.introspect scheme with
     | Runtime.Schemes.Shadow_pool { global; recycler; _ } ->
       wasted := !wasted + Shadow.Shadow_pool.shadow_pages_live global;
       Option.iter
         (fun r ->
           recycled := !recycled + Apa.Page_recycler.total_recycled_pages r)
         recycler
     | Runtime.Schemes.Tagged { recycler; _ } ->
       recycled := !recycled + Apa.Page_recycler.total_recycled_pages recycler
     | Runtime.Schemes.Opaque | Runtime.Schemes.Recoverable _ -> ());
    let va = Vmm.Machine.va_bytes_used scheme.Runtime.Scheme.machine in
    if va > !max_va then max_va := va
  done;
  {
    name = server.Workload.Spec.s_name;
    connections;
    wasted_pages_per_connection =
      float_of_int !wasted /. float_of_int connections;
    recycled_pages_per_connection =
      float_of_int !recycled /. float_of_int connections;
    va_bytes_per_connection = !max_va;
    note = note_for server.Workload.Spec.s_name;
  }

let rows ?connections () =
  List.map (measure ?connections) Workload.Catalog.servers

let render rows =
  let cells r =
    [
      r.name;
      string_of_int r.connections;
      Printf.sprintf "%.1f" r.wasted_pages_per_connection;
      Printf.sprintf "%.1f" r.recycled_pages_per_connection;
      Table.fmt_bytes r.va_bytes_per_connection;
      r.note;
    ]
  in
  Table.render
    ~headers:
      [
        "Server"; "conns"; "wasted pg/conn"; "recycled pg/conn"; "VA/conn";
        "note";
      ]
    ~aligns:[ Table.Left; Right; Right; Right; Right; Table.Left ]
    (List.map cells rows)
