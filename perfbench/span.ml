(* In-memory span recorder for the traced run.

   One buffer per domain (the farm gives each shard its own), so
   recording needs no synchronisation.  A span is five ints in
   parallel growable arrays: name, start, stop, parent and the
   connection or step id it belongs to.  Load/store/compute calls are
   far too frequent for one span each; they are aggregated onto the
   innermost open span as (kind, count, total ns) records.  Nothing is
   written while recording: {!write} dumps every buffer once at exit. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Span names.  The string table is what {!write} and the per-layer
   report use. *)
let names =
  [|
    "farm.connection";
    "farm.make_scheme";
    "vmm.machine_create";
    "runtime.scheme_build";
    "workload.handler";
    "runtime.malloc";
    "runtime.free";
    "runtime.pool_create";
    "runtime.pool_destroy";
    "shadow.after_free";
    "shadow.after_free+gc";
    "runtime.endurance_tick";
    "runtime.endurance_tick+gc";
  |]

let connection = 0
let make_scheme = 1
let machine_create = 2
let scheme_build = 3
let handler = 4
let malloc = 5
let free = 6
let pool_create = 7
let pool_destroy = 8
let after_free = 9
let after_free_gc = 10
let endurance_tick = 11
let endurance_tick_gc = 12

(* Aggregated call kinds. *)
let agg_names = [| "runtime.load"; "runtime.store"; "runtime.compute" |]
let load = 0
let store = 1
let compute = 2

type buf = {
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable unit_id : int array;
  mutable stack : int array;  (* open span ids, innermost last *)
  mutable depth : int;
  mutable acc : int array;  (* per open depth: count, ns for each kind *)
  mutable alen : int;
  mutable agg : int array;  (* span, kind, count, ns *)
  mutable current_unit : int;
}

let create () =
  let cap = 4096 in
  {
    len = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    unit_id = Array.make cap 0;
    stack = Array.make 64 0;
    depth = 0;
    acc = Array.make (64 * 6) 0;
    alen = 0;
    agg = Array.make (cap * 4) 0;
    current_unit = 0;
  }

(* Start unit [u] (a connection or step id): later spans carry it, and
   so do the spans already open, which were opened before the id was
   known (the farm opens a connection's span in [make_scheme], before
   the handler learns the connection index). *)
let set_unit b u =
  b.current_unit <- u;
  for i = 0 to b.depth - 1 do
    b.unit_id.(b.stack.(i)) <- u
  done

let rename b id name = b.name.(id) <- name

let grow a n = Array.append a (Array.make (max n (Array.length a)) 0)

let open_span b name =
  let id = b.len in
  if id = Array.length b.name then begin
    let n = Array.length b.name in
    b.name <- grow b.name n;
    b.start <- grow b.start n;
    b.stop <- grow b.stop n;
    b.parent <- grow b.parent n;
    b.unit_id <- grow b.unit_id n
  end;
  if b.depth = Array.length b.stack then begin
    b.stack <- grow b.stack b.depth;
    b.acc <- grow b.acc (b.depth * 6)
  end;
  b.len <- id + 1;
  b.name.(id) <- name;
  b.parent.(id) <- (if b.depth = 0 then -1 else b.stack.(b.depth - 1));
  b.unit_id.(id) <- b.current_unit;
  b.stack.(b.depth) <- id;
  b.depth <- b.depth + 1;
  b.start.(id) <- now ();
  id

let close_span b =
  let t = now () in
  b.depth <- b.depth - 1;
  let id = b.stack.(b.depth) in
  b.stop.(id) <- t;
  let base = b.depth * 6 in
  for kind = 0 to 2 do
    let c = b.acc.(base + (2 * kind)) in
    if c > 0 then begin
      if b.alen + 4 > Array.length b.agg then b.agg <- grow b.agg b.alen;
      let i = b.alen in
      b.agg.(i) <- id;
      b.agg.(i + 1) <- kind;
      b.agg.(i + 2) <- c;
      b.agg.(i + 3) <- b.acc.(base + (2 * kind) + 1);
      b.alen <- i + 4;
      b.acc.(base + (2 * kind)) <- 0;
      b.acc.(base + (2 * kind) + 1) <- 0
    end
  done

(* [span b name f] runs [f] inside a span, closing it on any exit. *)
let span b name f =
  let (_ : int) = open_span b name in
  match f () with
  | r ->
    close_span b;
    r
  | exception e ->
    close_span b;
    raise e

(* Charge one aggregated call of [kind] that started at [t0] to the
   innermost open span.  Calls made with no span open are dropped. *)
let add b kind t0 =
  let d = b.depth in
  if d > 0 then begin
    let i = ((d - 1) * 6) + (2 * kind) in
    b.acc.(i) <- b.acc.(i) + 1;
    b.acc.(i + 1) <- b.acc.(i + 1) + (now () - t0)
  end

(* Per-name totals over every buffer: calls, total duration and self
   time (duration minus the time covered by child spans and by the
   aggregated calls charged to the span), all in ns. *)
type totals = { calls : int; total_ns : int; self_ns : int }

let zero = { calls = 0; total_ns = 0; self_ns = 0 }

let summarise bufs =
  let spans = Array.make (Array.length names) zero in
  let aggs = Array.make (Array.length agg_names) zero in
  List.iter
    (fun b ->
      let covered = Array.make b.len 0 in
      for i = 0 to b.len - 1 do
        let p = b.parent.(i) in
        if p >= 0 then covered.(p) <- covered.(p) + (b.stop.(i) - b.start.(i))
      done;
      let i = ref 0 in
      while !i < b.alen do
        let span = b.agg.(!i) and kind = b.agg.(!i + 1) in
        let c = b.agg.(!i + 2) and ns = b.agg.(!i + 3) in
        covered.(span) <- covered.(span) + ns;
        let a = aggs.(kind) in
        aggs.(kind) <-
          { calls = a.calls + c; total_ns = a.total_ns + ns; self_ns = a.self_ns + ns };
        i := !i + 4
      done;
      for i = 0 to b.len - 1 do
        let dur = b.stop.(i) - b.start.(i) in
        let s = spans.(b.name.(i)) in
        spans.(b.name.(i)) <-
          {
            calls = s.calls + 1;
            total_ns = s.total_ns + dur;
            self_ns = s.self_ns + dur - covered.(i);
          }
      done)
    bufs;
  (spans, aggs)

(* Tab-separated dump, one line per span (buffer, id, name, parent,
   unit, start, stop) followed by one line per aggregate. *)
let write path bufs =
  let oc = open_out path in
  output_string oc "buf\tid\tname\tparent\tunit\tstart_ns\tstop_ns\n";
  List.iteri
    (fun k b ->
      for i = 0 to b.len - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" k i names.(b.name.(i))
          b.parent.(i) b.unit_id.(i) b.start.(i) b.stop.(i)
      done)
    bufs;
  output_string oc "buf\tspan\tagg\tcalls\ttotal_ns\n";
  List.iteri
    (fun k b ->
      let i = ref 0 in
      while !i < b.alen do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" k b.agg.(!i)
          agg_names.(b.agg.(!i + 1)) b.agg.(!i + 2) b.agg.(!i + 3);
        i := !i + 4
      done)
    bufs;
  close_out oc
