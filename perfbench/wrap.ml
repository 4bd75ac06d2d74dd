(* Timing wrappers around the public entry points the workloads call:
   the [Runtime.Scheme.t] record fields and the [pool_handle] closures.
   A wrapped scheme drives the same machine through the same calls, so
   the simulated outcome is unchanged; only host time is observed. *)

open Runtime.Scheme

let timed_access b kind f =
  let t0 = Span.now () in
  match f () with
  | v ->
    Span.add b kind t0;
    v
  | exception e ->
    Span.add b kind t0;
    raise e

let pool b (p : pool_handle) =
  {
    pool_alloc = (fun ?site n -> Span.span b Span.malloc (fun () -> p.pool_alloc ?site n));
    pool_free = (fun ?site a -> Span.span b Span.free (fun () -> p.pool_free ?site a));
    pool_destroy = (fun () -> Span.span b Span.pool_destroy p.pool_destroy);
  }

let scheme b (s : t) =
  {
    s with
    malloc = (fun ?site n -> Span.span b Span.malloc (fun () -> s.malloc ?site n));
    free = (fun ?site a -> Span.span b Span.free (fun () -> s.free ?site a));
    load = (fun a ~width -> timed_access b Span.load (fun () -> s.load a ~width));
    store = (fun a ~width v -> timed_access b Span.store (fun () -> s.store a ~width v));
    compute = (fun n -> timed_access b Span.compute (fun () -> s.compute n));
    pool_create =
      (fun ?elem_size () ->
        pool b (Span.span b Span.pool_create (fun () -> s.pool_create ?elem_size ())));
  }

(* [maybe trace f x] is [f b x] when tracing into [b], else [x]. *)
let maybe trace f x = match trace with Some b -> f b x | None -> x

(* Run [f] in a span of [name] when tracing, else just run it. *)
let span trace name f = match trace with Some b -> Span.span b name f | None -> f ()
