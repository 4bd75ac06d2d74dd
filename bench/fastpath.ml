(* Microbenchmarks for the MMU translation fast path.

   Seven scenarios cover the hot operations the TLB-first rewrite
   targets: hit/miss translation, word-wide load/store, the exempt
   accessors, and the two pooldestroy-shaped bulk syscalls.  Each run
   reports ns/op next to the hardcoded pre-rewrite baseline (measured on
   the seed implementation, commit dc4a5a5, same container, 2026-08-06)
   so the before/after ratio is visible in every BENCH_results.json.

   Alongside wall time we record *structural* counts that cannot drift
   with machine load: page-table walks per TLB-hit access (must be 0),
   frame lookups per 8-byte load (must be 1), and the OCaml heap words
   the access path, one whole connection, a shadow alloc + free and a
   pool destroy allocate (native code allocates deterministically, so
   these are exact too). *)

open Vmm
module J = Telemetry.Json

(* ns/op for the seed (hashtbl page table, per-byte access, per-page
   shootdowns), captured with this same timing loop before the rewrite.
   These are the fallback of last resort: when a BENCH_results.json
   from a previous run is present, its recorded after_ns become the
   baselines instead (see [baselines_for]), so adding a scenario never
   requires editing constants here. *)
let seed_baseline_ns =
  [
    ("translate+load8/tlb-hit", 336.0);
    ("translate+load8/tlb-miss", 458.7);
    ("store8/tlb-hit", 336.3);
    ("load1/tlb-hit", 94.3);
    ("load8/exempt", 426.2);
    ("mprotect/64-pages", 4751.2);
    ("munmap+mmap_fixed/64-pages", 69916.0);
  ]

(* Per-scenario after_ns from the last recorded run, keyed by name.
   Any parse trouble (missing file, foreign schema) degrades to the
   empty history rather than failing the bench. *)
let history_baselines file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
    (match J.of_string text with
     | Error _ -> []
     | Ok doc ->
       (match Option.bind (J.member "fastpath" doc) (J.member "rows") with
        | Some (J.List rows) ->
          List.filter_map
            (fun row ->
              match (J.member "name" row, J.member "after_ns" row) with
              | Some (J.String name), Some (J.Float ns) -> Some (name, ns)
              | Some (J.String name), Some (J.Int ns) ->
                Some (name, float_of_int ns)
              | _ -> None)
            rows
        | _ -> []))

(* Baseline for one scenario: history first, seed constant second, and
   for a scenario new enough to have neither, its own measurement (ratio
   1.0) — so a fresh scenario passes validation without anyone editing
   baselines by hand. *)
let baseline_for ~history name ~after =
  match List.assoc_opt name history with
  | Some ns -> ns
  | None ->
    (match List.assoc_opt name seed_baseline_ns with
     | Some ns -> ns
     | None -> after)

let time_ns_per_op ~budget f =
  (* Warm up, then calibrate the iteration count to ~[budget] seconds. *)
  for _ = 1 to 1_000 do f () done;
  let calibrate =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 10_000 do f () done;
    (Unix.gettimeofday () -. t0) /. 10_000.
  in
  let n = max 10_000 (int_of_float (budget /. calibrate)) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do f () done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n

let scenarios =
  [
    ( "translate+load8/tlb-hit",
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:1 in
        Mmu.store m a ~width:8 42;
        fun () -> ignore (Mmu.load m a ~width:8) );
    ( "translate+load8/tlb-miss",
      fun () ->
        (* Walk 256 pages with a 64-entry TLB: ~every access misses. *)
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:256 in
        let i = ref 0 in
        fun () ->
          ignore (Mmu.load m (a + (!i * Addr.page_size)) ~width:8);
          i := (!i + 41) land 255 );
    ( "store8/tlb-hit",
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:1 in
        fun () -> Mmu.store m a ~width:8 7 );
    ( "load1/tlb-hit",
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:1 in
        fun () -> ignore (Mmu.load m a ~width:1) );
    ( "load8/exempt",
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:1 in
        fun () -> ignore (Mmu.load_exempt m a ~width:8) );
    ( "mprotect/64-pages",
      fun () ->
        (* Pooldestroy-shaped: flip a 64-page run's protection. *)
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:64 in
        let rw = ref false in
        fun () ->
          rw := not !rw;
          Kernel.mprotect m ~addr:a ~pages:64
            (if !rw then Perm.Read_write else Perm.No_access) );
    ( "munmap+mmap_fixed/64-pages",
      fun () ->
        let m = Machine.create () in
        let a = Kernel.mmap m ~pages:64 in
        fun () ->
          Kernel.munmap m ~addr:a ~pages:64;
          Kernel.mmap_fixed m ~addr:a ~pages:64 );
  ]

(* Minor words [f] allocates, net of the boxed float the measurement
   itself keeps live across the call. *)
let minor_words f =
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  int_of_float (measure f -. measure ignore)

(* Minor words of 1,000 TLB-hit loads and 1,000 stores, through the MMU
   and through the [ours] scheme's guarded path. *)
let access_minor_words () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  let s = Runtime.Scheme_spec.build Runtime.Scheme_spec.ours (Machine.create ()) in
  let p = s.Runtime.Scheme.malloc ~site:"fastpath" 512 in
  let accesses load store base () =
    for i = 0 to 999 do
      ignore (load (base + (i land 63 * 8)) ~width:8);
      store (base + (i land 63 * 8)) ~width:8 i
    done
  in
  let mmu = accesses (Mmu.load m) (Mmu.store m) a in
  let ours = accesses s.Runtime.Scheme.load s.Runtime.Scheme.store p in
  mmu ();
  ours ();
  (* warm: TLB entries and cache sets in place *)
  minor_words mmu + minor_words ours

(* One fork-per-connection ghttpd connection under [ours] — a fresh
   machine and scheme, the fork cost, the handler — as (minor words,
   words allocated directly in the major heap).  The second of two
   connections is measured, so one-time initialisation is not.  Minor
   words come from [Gc.minor_words]: [Gc.counters]' minor count is not
   exact on OCaml 5.1. *)
let connection_words () =
  let connection conn =
    let m = Machine.create () in
    let s = Runtime.Scheme_spec.build Runtime.Scheme_spec.ours m in
    s.Runtime.Scheme.compute Runtime.Process.fork_cost_instructions;
    Workload.Servers.ghttpd.Workload.Spec.handler conn s
  in
  connection 0;
  let _, promoted0, major0 = Gc.counters () in
  let minor = minor_words (fun () -> connection 1) in
  let _, promoted1, major1 = Gc.counters () in
  (minor, int_of_float (major1 -. major0 -. (promoted1 -. promoted0)))

(* A pool of the [ours] scheme on a fresh machine, warmed by one
   alloc/free pair. *)
let warm_ours_pool () =
  let s = Runtime.Scheme_spec.build Runtime.Scheme_spec.ours (Machine.create ()) in
  let p = s.Runtime.Scheme.pool_create () in
  p.Runtime.Scheme.pool_free (p.Runtime.Scheme.pool_alloc ~site:"fastpath" 64);
  p

(* Minor words of one warm [pool_alloc] + [pool_free] under [ours]: the
   mean over 256 pairs, so the page-table and shadow-table chunks a run
   of fresh shadow pages builds now and then are amortised as they are
   in a long run. *)
let shadow_alloc_free_words () =
  let p = warm_ours_pool () in
  let n = 256 in
  minor_words (fun () ->
      for _ = 1 to n do
        p.Runtime.Scheme.pool_free (p.Runtime.Scheme.pool_alloc ~site:"fastpath" 64)
      done)
  / n

(* Minor words [pool_destroy] spends per object, over a pool of 256
   objects of which every other one was freed. *)
let pool_destroy_words_per_object () =
  let p = warm_ours_pool () in
  let n = 256 in
  let objs = Array.init n (fun _ -> p.Runtime.Scheme.pool_alloc ~site:"fastpath" 64) in
  Array.iteri (fun i a -> if i land 1 = 0 then p.Runtime.Scheme.pool_free a) objs;
  minor_words p.Runtime.Scheme.pool_destroy / (n + 1)

(* Structural counters: machine-load-proof evidence that the fast path
   does what the design says.  Returned as (name, value) pairs; the
   validator and tests pin the expected values. *)
let structural () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  ignore (Mmu.load m a ~width:8);
  (* warm *)
  let walks0 = Page_table.walk_count m.Machine.page_table in
  let frames0 = Frame_table.lookup_count m.Machine.frames in
  ignore (Mmu.load m a ~width:8);
  let walks_per_hit_load = Page_table.walk_count m.Machine.page_table - walks0 in
  let frames_per_load8 = Frame_table.lookup_count m.Machine.frames - frames0 in
  let frames1 = Frame_table.lookup_count m.Machine.frames in
  Mmu.store m a ~width:8 7;
  let frames_per_store8 = Frame_table.lookup_count m.Machine.frames - frames1 in
  let connection_minor, connection_major = connection_words () in
  [
    ("page_table_walks_per_tlb_hit_load", walks_per_hit_load);
    ("frame_lookups_per_load8", frames_per_load8);
    ("frame_lookups_per_store8", frames_per_store8);
    ("connection_minor_words", connection_minor);
    ("connection_major_words", connection_major);
    ("access_minor_words", access_minor_words ());
    ("shadow_alloc_free_words", shadow_alloc_free_words ());
    ("pool_destroy_words_per_object", pool_destroy_words_per_object ());
  ]

(* Run everything: prints a section to stdout, returns the JSON block
   that [write_results] embeds under the "fastpath" key. *)
let run ?(history_file = "BENCH_results.json") ~smoke () =
  let history = history_baselines history_file in
  if history = [] then
    print_endline "\n== MMU fast path (ns/op, before = seed implementation) =="
  else
    Printf.printf "\n== MMU fast path (ns/op, before = last %s) ==\n"
      history_file;
  let budget = if smoke then 0.02 else 0.15 in
  let rows =
    List.map
      (fun (name, setup) ->
        let after = time_ns_per_op ~budget (setup ()) in
        let before = baseline_for ~history name ~after in
        Printf.printf "  %-28s %8.1f -> %7.1f   (%.1fx)\n%!" name before after
          (before /. after);
        J.Obj
          [
            ("name", J.String name);
            ("before_ns", J.Float before);
            ("after_ns", J.Float after);
            ("speedup", J.Float (before /. after));
          ])
      scenarios
  in
  let s = structural () in
  List.iter (fun (k, v) -> Printf.printf "  %-34s %d\n" k v) s;
  J.Obj
    [
      ("rows", J.List rows);
      ("structural", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s));
    ]
