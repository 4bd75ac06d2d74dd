(* Quickstart: the public API in five minutes.

     dune exec examples/quickstart.exe

   Builds a simulated machine, wraps an ordinary allocator with the
   shadow-page scheme, and walks through the lifecycle the paper
   describes: allocation on a fresh virtual page aliased to a shared
   physical page, protection at free, and an MMU trap — with full
   diagnostics — on every later use. *)

let () =
  (* A machine: physical frames, a page table, a 64-entry TLB, and a
     cycle cost model (LLVM-baseline code quality by default). *)
  let machine = Vmm.Machine.create () in

  (* The full scheme from the paper: shadow pages over pool allocation.
     [Runtime.Schemes] also offers [native], [pa], [shadow_basic], and
     [Runtime.Efence], [Runtime.Valgrind_sim] and
     [Runtime.Capability_check] put Electric Fence, a Valgrind-style
     checker and a capability checker behind the same interface. *)
  let scheme = Runtime.Schemes.shadow_pool machine in

  (* malloc: one word bigger under the hood, placed by the ordinary
     allocator, then remapped so the caller sees a fresh virtual page. *)
  let p = scheme.Runtime.Scheme.malloc ~site:"quickstart.ml:alloc" 64 in
  Printf.printf "allocated 64 bytes at %s\n" (Format.asprintf "%a" Vmm.Addr.pp p);

  (* Ordinary loads and stores go through the simulated MMU. *)
  scheme.Runtime.Scheme.store p ~width:8 42;
  scheme.Runtime.Scheme.store (p + 8) ~width:8 43;
  Printf.printf "p[0] + p[1] = %d\n"
    (scheme.Runtime.Scheme.load p ~width:8
     + scheme.Runtime.Scheme.load (p + 8) ~width:8);

  (* Two live objects share a physical page but not a virtual one. *)
  let q = scheme.Runtime.Scheme.malloc ~site:"quickstart.ml:second" 64 in
  Printf.printf "second object at %s (same physical page, different virtual)\n"
    (Format.asprintf "%a" Vmm.Addr.pp q);

  (* free: the shadow page is mprotect'ed, the canonical block returns to
     the allocator — physical memory is reused, addresses are not. *)
  scheme.Runtime.Scheme.free ~site:"quickstart.ml:free" p;

  (* Any use of the stale pointer now traps, with diagnosis. *)
  (match scheme.Runtime.Scheme.load p ~width:8 with
   | v -> Printf.printf "unexpected: read %d\n" v
   | exception Shadow.Report.Violation report ->
     Printf.printf "caught: %s\n" (Shadow.Report.to_string report));

  (* The sibling object is untouched by the protection flip. *)
  scheme.Runtime.Scheme.store q ~width:8 7;
  Printf.printf "sibling object still fine: %d\n"
    (scheme.Runtime.Scheme.load q ~width:8);

  (* Pools bound address-space growth: everything allocated from this
     pool becomes reusable address space at destroy. *)
  Runtime.Workload_api.with_pool scheme (fun pool ->
      let r = pool.Runtime.Scheme.pool_alloc ~site:"quickstart.ml:pool" 256 in
      scheme.Runtime.Scheme.store r ~width:8 1);
  Printf.printf "pool destroyed; %d virtual bytes used so far\n"
    (Vmm.Machine.va_bytes_used machine);

  (* Costs are explicit: cycles, syscalls, TLB behaviour, footprint. *)
  let stats = Vmm.Stats.snapshot machine.Vmm.Machine.stats in
  Printf.printf
    "cost: %.0f cycles | %d syscalls | %d/%d TLB hits/misses | %d frames\n"
    (Vmm.Machine.cycles machine)
    (Vmm.Stats.total_syscalls stats)
    stats.Vmm.Stats.tlb_hits stats.Vmm.Stats.tlb_misses
    (Vmm.Frame_table.live_frames machine.Vmm.Machine.frames)
