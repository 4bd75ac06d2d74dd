(* longlived-ghttpd: the paper's §3.4 server.  One long-lived machine
   serves [days * per_day] ghttpd connections; each connection also
   allocates a session object with a heavy-tailed lifetime (most die
   within 16 connections, 1 in 8 lives for days).  Every [probe_every]
   connections the next dying session's pointer is planted in a
   [Vmm.Roots] global before its free, and every planted pointer is
   probed: the load must trap, and no rooted range may be reclaimed.
   [Shadow.Reuse_policy] [Conservative_gc] runs with the real
   [Shadow.Gc], and [Runtime.Endurance.tick] polls the [Va_budget]
   after every connection.

   The generator is the benchmark's own and costs O(1) per connection:
   sessions are bucketed by the connection they die at.  The seed draws
   which sessions die when and the phase of the probe schedule. *)

open Common

let days = 4
let per_day = 1000
let total = days * per_day
let session_bytes = 256
let session_words = session_bytes / 8
let probe_every = 10
let probe_slots = 4
let stale_heap_every = 37
let trigger_pages = 64
let budget_pages = 1 lsl 20
let gc_cost_per_word = 2

(* Seeded inputs: each connection's session death time, as buckets of
   intrusive lists ([head] by death connection, [next] by session).
   Every 8th session is long-lived, for 1 to [days] days in a fixed
   rotation.  The others join a pool of [short_live] short sessions;
   each short birth sends one pool member, drawn by the seed, to die at
   the next connection, so lifetimes are geometric (mean [short_live] +
   1, most under 16 connections).  The seed thus draws which session
   dies, never how many are live: every seed meets the same live-set
   size at every connection, hence the same heap and GC load and the
   same physical-frame peak.  It also draws the probe phase. *)
type inputs = { head : int array; next : int array; phase : int }

let short_live = 8

let inputs ~seed =
  let rng = Workload.Prng.create ~seed in
  let head = Array.make (total + 1) 0 in
  let next = Array.make (total + 1) 0 in
  let dies_at c d =
    if d <= total then begin
      next.(c) <- head.(d);
      head.(d) <- c
    end
  in
  let pool = Array.make (short_live + 1) 0 and live = ref 0 in
  for c = 1 to total do
    if c mod 8 = 0 then dies_at c (c + (per_day * (1 + (c / 8 mod days))))
    else begin
      pool.(!live) <- c;
      incr live;
      if !live > short_live then begin
        let i = Workload.Prng.below rng !live in
        dies_at pool.(i) (c + 1);
        decr live;
        pool.(i) <- pool.(!live)
      end
    end
  done;
  { head; next; phase = Workload.Prng.below rng probe_every }

(* The detector's §3.4 machinery, absent under the native reference. *)
type guard = {
  gc : Shadow.Gc.t;
  pool : Shadow.Shadow_pool.t;
  endurance : Runtime.Endurance.t;
  roots : Vmm.Roots.t;
  mutable offered : int;
  mutable pinned_max : int;
}

type state = {
  scheme : Runtime.Scheme.t;  (* wrapped when tracing *)
  machine : Vmm.Machine.t;
  guard : guard option;
  addr : int array;  (* session address by creating connection *)
  planted : int array;
}

(* Account for a GC run that happened inside [f], if any. *)
let watch_gc trace g f ~plain ~with_gc =
  let runs0 = Shadow.Gc.runs g.gc and rec0 = Shadow.Gc.total_reclaimed_pages g.gc in
  let id = Option.map (fun b -> Span.open_span b plain) trace in
  let r =
    match f () with
    | r ->
      Option.iter Span.close_span trace;
      r
    | exception e ->
      Option.iter Span.close_span trace;
      raise e
  in
  if Shadow.Gc.runs g.gc > runs0 then begin
    (match (trace, id) with Some b, Some id -> Span.rename b id with_gc | _ -> ());
    let pinned = Shadow.Gc.last_pinned g.gc in
    g.offered <-
      g.offered
      + (Shadow.Gc.total_reclaimed_pages g.gc - rec0)
      + List.fold_left (fun acc p -> acc + p.Shadow.Gc.p_pages) 0 pinned;
    g.pinned_max <- max g.pinned_max (List.length pinned)
  end;
  r

let setup ~spec ~trace =
  let machine =
    Wrap.span trace Span.machine_create (fun () -> Vmm.Machine.create ~cost:(cost_of spec) ())
  in
  let built =
    Wrap.span trace Span.scheme_build (fun () -> Runtime.Scheme_spec.build spec machine)
  in
  let guard =
    match Runtime.Schemes.introspect built with
    | Runtime.Schemes.Shadow_pool { global; _ } ->
      let roots = Vmm.Roots.create () in
      let gc = Shadow.Gc.create ~cost_per_word:gc_cost_per_word ~roots global in
      let policy =
        Shadow.Reuse_policy.create ~gc
          (Shadow.Reuse_policy.Conservative_gc
             { trigger_pages; scan_cost_per_object = 2 })
          global
      in
      let budget = Shadow.Va_budget.create ~budget_pages machine in
      let endurance = Runtime.Endurance.create ~policy ~budget gc in
      let g = { gc; pool = global; endurance; roots; offered = 0; pinned_max = 0 } in
      Shadow.Shadow_pool.set_after_free_hook global (fun () ->
          watch_gc trace g
            (fun () -> Shadow.Reuse_policy.after_free policy)
            ~plain:Span.after_free ~with_gc:Span.after_free_gc);
      Some g
    | _ -> None
  in
  {
    scheme = Wrap.maybe trace Wrap.scheme built;
    machine;
    guard;
    addr = Array.make (total + 1) 0;
    planted = Array.make probe_slots 0;
  }

(* Probe every planted pointer: under the detector each load must raise
   a violation; a plain trap is accepted only while the range is still
   freed-and-protected (the diagnostic record alone was lost). *)
let probe st errors probes =
  Array.iter
    (fun a ->
      if a <> 0 then
        match st.scheme.Runtime.Scheme.load a ~width:8 with
        | (_ : int) ->
          if st.guard <> None then
            errors := Printf.sprintf "probe of rooted 0x%x did not trap" a :: !errors
        | exception Shadow.Report.Violation _ -> incr probes
        | exception Vmm.Fault.Trap _ -> (
          match st.guard with
          | Some g
            when List.exists
                   (fun (base, pages) -> a >= base && a < base + Vmm.Addr.of_page pages)
                   (Shadow.Shadow_pool.freed_ranges g.pool) ->
            incr probes
          | _ ->
            errors := Printf.sprintf "rooted 0x%x was reclaimed (undiagnosed trap)" a
                      :: !errors))
    st.planted

(* Serve every connection on [st]; returns the per-connection host ns
   and simulated kcycles. *)
let serve ~trace st inputs =
  let s = st.scheme in
  let host = Array.make total 0 and kcycles = Array.make total 0. in
  let errors = ref [] and probes = ref 0 in
  let want_plant = ref false and next_slot = ref 0 and frees = ref 0 in
  let session c =
    let a = s.Runtime.Scheme.malloc ~site:"bench:session" session_bytes in
    for i = 0 to session_words - 1 do
      s.Runtime.Scheme.store (a + (i * 8)) ~width:8 ((c * 17) + i + 1)
    done;
    st.addr.(c) <- a
  in
  let retire c victim =
    let a = st.addr.(victim) in
    incr frees;
    if !want_plant then begin
      want_plant := false;
      st.planted.(!next_slot) <- a;
      Option.iter (fun g -> Vmm.Roots.set_global g.roots ~slot:!next_slot a) st.guard;
      next_slot := (!next_slot + 1) mod probe_slots
    end;
    (* A stale copy in the session born this connection, which outlives
       it: the mark phase must find it and keep the range pinned. *)
    if !frees mod stale_heap_every = 0 then
      s.Runtime.Scheme.store (st.addr.(c) + (session_words / 2 * 8)) ~width:8 a;
    s.Runtime.Scheme.free ~site:"bench:session-done" a
  in
  let connection c =
    Workload.Servers.ghttpd.Workload.Spec.handler c s;
    session c;
    let v = ref inputs.head.(c) in
    while !v <> 0 do
      retire c !v;
      v := inputs.next.(!v)
    done;
    Option.iter
      (fun g ->
        watch_gc trace g
          (fun () -> ignore (Runtime.Endurance.tick g.endurance : Shadow.Gc.report option))
          ~plain:Span.endurance_tick ~with_gc:Span.endurance_tick_gc)
      st.guard;
    if (c + inputs.phase) mod probe_every = 0 then begin
      want_plant := true;
      probe st errors probes
    end
  in
  for c = 1 to total do
    let t0 = Span.now () and k0 = Vmm.Machine.cycles st.machine in
    (match trace with
     | None -> connection c
     | Some b ->
       Span.set_unit b c;
       Span.span b Span.handler (fun () -> connection c));
    host.(c - 1) <- Span.now () - t0;
    kcycles.(c - 1) <- (Vmm.Machine.cycles st.machine -. k0) /. 1000.
  done;
  (host, kcycles, List.rev !errors, !probes)

let native_cycles ~seed =
  let st = setup ~spec:native ~trace:None in
  let (_ : int array * float array * string list * int) =
    serve ~trace:None st (inputs ~seed)
  in
  Vmm.Machine.cycles st.machine

let round ~seed ~trace =
  let inputs = inputs ~seed in
  let st = setup ~spec:ours ~trace in
  let t0 = Span.now () in
  let host, kcycles, errors, probes =
    try serve ~trace st inputs
    with e -> ([| 0 |], [| 0. |], [ "exception: " ^ Printexc.to_string e ], 0)
  in
  let wall = Span.now () - t0 in
  let g =
    match st.guard with
    | Some g -> g
    | None -> invalid_arg "longlived: the scheme under test has no shadow pool"
  in
  let gc_instructions = Shadow.Gc.total_scanned_words g.gc * gc_cost_per_word in
  let ledger, ledger_error = Ledger.of_machine ~gc_instructions st.machine in
  let kc = sorted_floats kcycles in
  {
    wall_ns = wall;
    ops = total;
    host_lat_ns = host;
    sim =
      {
        sim_zero with
        cycles = Vmm.Machine.cycles st.machine;
        stats = Vmm.Stats.snapshot st.machine.Vmm.Machine.stats;
        ledger;
        conn_kcycles_p50 = percentile kc 0.5;
        conn_kcycles_p99 = percentile kc 0.99;
        connections = total;
        va_pages_peak = va_pages st.machine;
        phys_pages_peak = phys_pages st.machine;
        walks = walks st.machine;
        frame_lookups = lookups st.machine;
        gc_runs = Shadow.Gc.runs g.gc;
        gc_scanned_words = Shadow.Gc.total_scanned_words g.gc;
        gc_reclaimed_pages = Shadow.Gc.total_reclaimed_pages g.gc;
        gc_offered_pages = g.offered;
        gc_pinned_max = g.pinned_max;
        probes;
      };
    failures = errors @ Option.to_list ledger_error;
    farm_overhead_ns = 0;
    shard_busy_ns = [||];
  }

(* Set-up as the timed loop would meet it: seeded inputs plus the
   machine, scheme, roots, GC, reuse policy, budget and endurance
   controller. *)
let setup_once ~seed =
  let (_ : inputs) = inputs ~seed in
  let (_ : state) = setup ~spec:ours ~trace:None in
  ()
