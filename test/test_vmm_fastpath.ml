(* The translation fast path: differential testing of the TLB-first MMU
   against a table-first oracle, TLB-coherence regression tests for
   remaps, structural proofs that the fast path skips the page table and
   does exactly one frame lookup, ranged-shootdown semantics, and the
   packed-entry encoding. *)

open Vmm

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---- Pte encoding ---- *)

let test_pte_roundtrip () =
  List.iter
    (fun perm ->
      List.iter
        (fun frame ->
          let pte = Pte.make ~frame ~perm in
          check_bool "present" true (Pte.is_present pte);
          check_int "frame" frame (Pte.frame pte);
          check_bool "perm" true (Perm.equal perm (Pte.perm pte));
          List.iter
            (fun access ->
              check_bool "allows agrees" (Perm.allows perm access)
                (Pte.allows pte access))
            [ Perm.Read; Perm.Write ])
        [ 0; 1; 42; 1_000_000 ])
    [ Perm.No_access; Perm.Read_only; Perm.Read_write ];
  check_bool "none absent" false (Pte.is_present Pte.none);
  let pte = Pte.make ~frame:9 ~perm:Perm.Read_write in
  let ro = Pte.with_perm pte Perm.Read_only in
  check_int "with_perm keeps frame" 9 (Pte.frame ro);
  check_bool "with_perm sets perm" true (Perm.equal Perm.Read_only (Pte.perm ro))

(* ---- TLB coherence under remap (the old [assert (f = frame)] bug):
   stale entries must be impossible by construction, so a remapped page
   must be re-read from the new frame even with asserts compiled out. *)

let test_remap_after_munmap_sees_new_frame () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 111; (* warms the TLB for this page *)
  Kernel.munmap m ~addr:a ~pages:1;
  Kernel.mmap_fixed m ~addr:a ~pages:1;
  check_int "fresh frame is zeroed, not stale 111" 0 (Mmu.load m a ~width:8);
  Mmu.store m a ~width:8 222;
  check_int "writes land in the new frame" 222 (Mmu.load m a ~width:8)

let test_mmap_fixed_over_live_mapping_invalidates () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:2 in
  Mmu.store m a ~width:8 111;
  Mmu.store m (a + Addr.page_size) ~width:8 333;
  (* Replace both pages while their translations are hot in the TLB. *)
  Kernel.mmap_fixed m ~addr:a ~pages:2;
  check_int "page 0 re-reads through new mapping" 0 (Mmu.load m a ~width:8);
  check_int "page 1 re-reads through new mapping" 0
    (Mmu.load m (a + Addr.page_size) ~width:8)

let test_alias_at_over_warm_page () =
  let m = Machine.create () in
  let src = Kernel.mmap m ~pages:1 in
  Mmu.store m src ~width:8 42;
  let dst = Kernel.mmap m ~pages:1 in
  Mmu.store m dst ~width:8 7; (* dst translation now cached *)
  Kernel.mremap_alias_at m ~src ~dst ~pages:1;
  check_int "alias reads source frame, not stale dst frame" 42
    (Mmu.load m dst ~width:8)

let test_mprotect_visible_through_warm_tlb () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  Mmu.store m a ~width:8 5; (* cache RW entry *)
  Kernel.mprotect m ~addr:a ~pages:1 Perm.Read_only;
  check_int "read still fine" 5 (Mmu.load m a ~width:8);
  (match Mmu.store m a ~width:8 6 with
   | () -> Alcotest.fail "write must trap after mprotect"
   | exception Fault.Trap (Fault.Protection _) -> ()
   | exception Fault.Trap _ -> Alcotest.fail "wrong fault");
  Kernel.mprotect m ~addr:a ~pages:1 Perm.Read_write;
  Mmu.store m a ~width:8 6;
  check_int "write after re-enable" 6 (Mmu.load m a ~width:8)

(* ---- Structural: the fast path's instruction budget ---- *)

let test_tlb_hit_skips_page_table () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  ignore (Mmu.load m a ~width:8); (* warm the TLB *)
  let walks0 = Page_table.walk_count m.Machine.page_table in
  let frames0 = Frame_table.lookup_count m.Machine.frames in
  ignore (Mmu.load m a ~width:8);
  check_int "TLB-hit load: zero page-table walks" walks0
    (Page_table.walk_count m.Machine.page_table);
  check_int "8-byte load: exactly one frame lookup" (frames0 + 1)
    (Frame_table.lookup_count m.Machine.frames);
  let walks1 = Page_table.walk_count m.Machine.page_table in
  let frames1 = Frame_table.lookup_count m.Machine.frames in
  Mmu.store m a ~width:8 7;
  check_int "TLB-hit store: zero page-table walks" walks1
    (Page_table.walk_count m.Machine.page_table);
  check_int "8-byte store: exactly one frame lookup" (frames1 + 1)
    (Frame_table.lookup_count m.Machine.frames)

(* The directory starts at the first chunk mapped and must widen in both
   directions, keeping every entry and the ascending [iter] order — also
   over a long run of chunks mapped in descending order. *)
let test_page_table_directory_grows_both_ways () =
  let pt = Page_table.create () in
  let stats = Stats.create () in
  let pages = [ 70_000; 300; 5_000_000; 0; 70_255; 70_256; 1_000 ] in
  List.iteri
    (fun i page -> Page_table.map pt stats ~page ~frame:i ~perm:Perm.Read_write)
    pages;
  List.iteri
    (fun i page ->
      check_int (Printf.sprintf "page %d frame" page) i
        (Pte.frame (Page_table.pte pt ~page)))
    pages;
  List.iter
    (fun page ->
      check_bool (Printf.sprintf "page %d unmapped" page) false
        (Page_table.is_mapped pt ~page))
    [ 1; 299; 69_999; 4_999_999; 9_000_000 ];
  let seen = ref [] in
  Page_table.iter pt (fun page _ -> seen := page :: !seen);
  check (Alcotest.list Alcotest.int) "iter ascending" (List.sort compare pages)
    (List.rev !seen);
  Page_table.set_perm_range pt ~page:70_255 ~pages:2 Perm.No_access;
  check_bool "range crosses a chunk boundary" true
    (Perm.equal Perm.No_access (Pte.perm (Page_table.pte pt ~page:70_256)));
  List.iter (fun page -> ignore (Page_table.unmap pt ~page)) pages;
  check_int "all unmapped" 0 (Page_table.mapped_pages pt);
  let pt = Page_table.create () in
  let descending = List.init 200 (fun k -> 3_000_000 - (k * 256)) in
  List.iter
    (fun page -> Page_table.map pt stats ~page ~frame:page ~perm:Perm.Read_only)
    descending;
  List.iter
    (fun page ->
      check_int "descending run keeps every entry" page
        (Pte.frame (Page_table.pte pt ~page)))
    descending

let test_tlb_miss_walks_once () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  let walks0 = Page_table.walk_count m.Machine.page_table in
  ignore (Mmu.load m a ~width:8); (* cold: one walk, one refill *)
  check_int "TLB-miss load: exactly one walk" (walks0 + 1)
    (Page_table.walk_count m.Machine.page_table);
  let s = Stats.snapshot m.Machine.stats in
  check_int "one miss counted" 1 s.Stats.tlb_misses

let test_word_access_all_widths () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:2 in
  (* Bit-compatibility of word-wide and byte-wide paths, incl. the top
     byte of an 8-byte value (63-bit int truncation). *)
  List.iter
    (fun (width, v) ->
      Mmu.store m a ~width v;
      check_int (Printf.sprintf "width %d roundtrip" width) v
        (Mmu.load m a ~width);
      (* The same value must be visible byte-by-byte, little-endian. *)
      for i = 0 to width - 1 do
        check_int
          (Printf.sprintf "width %d byte %d" width i)
          ((v lsr (8 * i)) land 0xff)
          (Mmu.load m (a + i) ~width:1)
      done)
    [
      (1, 0xAB); (2, 0xBEEF); (4, 0xDEADBEEF); (8, 0x1234567890ABCDEF);
      (8, max_int); (8, 0);
    ];
  (* Exempt accessors share the word path. *)
  Mmu.store_exempt m a ~width:8 0x0102030405060708;
  check_int "exempt roundtrip" 0x0102030405060708 (Mmu.load_exempt m a ~width:8);
  check_int "exempt visible to user load" 0x0102030405060708
    (Mmu.load m a ~width:8);
  (* Cross-page accesses still work, via the byte path. *)
  let boundary = a + Addr.page_size - 3 in
  Mmu.store m boundary ~width:8 0x1122334455667788;
  check_int "cross-page roundtrip" 0x1122334455667788
    (Mmu.load m boundary ~width:8);
  Mmu.store_exempt m boundary ~width:8 0x55;
  check_int "exempt cross-page" 0x55 (Mmu.load_exempt m boundary ~width:8)

(* ---- Batched shootdowns ---- *)

let test_ranged_shootdown_counting () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:64 in
  let s0 = Stats.snapshot m.Machine.stats in
  Kernel.mprotect m ~addr:a ~pages:64 Perm.No_access;
  let s1 = Stats.snapshot m.Machine.stats in
  check_int "one shootdown op for 64-page mprotect" 1
    (s1.Stats.tlb_shootdowns - s0.Stats.tlb_shootdowns);
  check_int "64 pages shot down" 64
    (s1.Stats.tlb_shootdown_pages - s0.Stats.tlb_shootdown_pages);
  Kernel.munmap m ~addr:a ~pages:64;
  let s2 = Stats.snapshot m.Machine.stats in
  check_int "munmap adds one more op" 2 s2.Stats.tlb_shootdowns;
  check_int "and 64 more pages" 128 s2.Stats.tlb_shootdown_pages;
  (* The counters live directly in the machine's telemetry registry. *)
  let registry = Stats.registry m.Machine.stats in
  let live name =
    Telemetry.Metrics.counter_value (Telemetry.Metrics.counter registry name)
  in
  check_int "registry sees the ops" s2.Stats.tlb_shootdowns
    (live "vmm.tlb_shootdowns");
  check_int "registry sees the pages" s2.Stats.tlb_shootdown_pages
    (live "vmm.tlb_shootdown_pages")

let test_shootdown_traced_once () =
  let sink = Telemetry.Sink.create ~capacity:128 () in
  let m = Machine.create ~trace:sink () in
  let a = Kernel.mmap m ~pages:32 in
  Kernel.mprotect m ~addr:a ~pages:32 Perm.No_access;
  Kernel.munmap m ~addr:a ~pages:32;
  let flushes =
    List.filter_map
      (fun (e : Telemetry.Event.t) ->
        match e.Telemetry.Event.kind with
        | Telemetry.Event.Tlb_flush { pages } -> Some pages
        | _ -> None)
      (Telemetry.Sink.events sink)
  in
  check
    (Alcotest.list Alcotest.int)
    "one ranged event per bulk call, with page counts" [ 32; 32 ] flushes

let test_invalidate_range_narrow_and_wide () =
  let stats = Stats.create () in
  let narrow = Tlb.create ~entries:64 ~ways:4 () in
  (* 16 sets: a 4-page range takes the per-page path. *)
  for p = 100 to 115 do
    Tlb.insert narrow ~page:p ~frame:p ~perm:Perm.Read_write
  done;
  Tlb.invalidate_range narrow ~page:104 ~pages:4;
  for p = 100 to 115 do
    let hit = Tlb.lookup narrow stats ~page:p <> None in
    check_bool (Printf.sprintf "narrow page %d" p) (p < 104 || p >= 108) hit
  done;
  (* A range wider than the set count takes the sweep path. *)
  let wide = Tlb.create ~entries:64 ~ways:4 () in
  for p = 0 to 63 do
    Tlb.insert wide ~page:p ~frame:p ~perm:Perm.Read_write
  done;
  Tlb.invalidate_range wide ~page:8 ~pages:40;
  for p = 0 to 63 do
    let hit = Tlb.lookup wide stats ~page:p <> None in
    check_bool (Printf.sprintf "wide page %d" p) (p < 8 || p >= 48) hit
  done

(* ---- Differential suite: random access/mmap/mprotect/munmap sequences
   through a table-first oracle (the pre-TLB-first semantics: walk the
   model's page table for every byte, in address order) and the real
   TLB-first MMU, asserting identical values, faults and mapped-page
   counts. *)

module Model = struct
  type page = { mutable perm : Perm.t option; bytes : Bytes.t }

  type t = { base : Addr.t; pages : page array }

  let create base n =
    {
      base;
      pages =
        Array.init n (fun _ ->
            { perm = None; bytes = Bytes.make Addr.page_size '\000' });
    }

  let page_of t addr = (addr - t.base) / Addr.page_size
  let in_range t addr = addr >= t.base && addr < t.base + (Array.length t.pages * Addr.page_size)

  (* Table-first check of one byte: the oracle's page-table walk. *)
  let check_byte t addr access =
    if not (in_range t addr) then Some (Fault.Unmapped { addr; access })
    else
      match t.pages.(page_of t addr).perm with
      | None -> Some (Fault.Unmapped { addr; access })
      | Some perm ->
        if Perm.allows perm access then None
        else Some (Fault.Protection { addr; access; perm })

  (* Old-MMU semantics: a within-page access checks once at the access
     address; a page-crossing access checks byte by byte in address
     order and reports the first faulting byte. *)
  let check_access t addr width access =
    if Addr.offset addr + width <= Addr.page_size then check_byte t addr access
    else
      let rec go i =
        if i >= width then None
        else
          match check_byte t (addr + i) access with
          | Some f -> Some f
          | None -> go (i + 1)
      in
      go 0

  let read t addr width =
    let rec go i acc =
      if i >= width then acc
      else
        let a = addr + i in
        let b = Char.code (Bytes.get t.pages.(page_of t a).bytes (Addr.offset a)) in
        go (i + 1) (acc lor (b lsl (8 * i)))
    in
    go 0 0

  (* Mirror of the MMU's store: bytes before a faulting byte are written
     (both the old byte loop and the new slow path behave this way). *)
  let write t addr width v =
    let fault = check_access t addr width Perm.Write in
    let stop =
      match fault with Some f -> Fault.addr f - addr | None -> width
    in
    for i = 0 to stop - 1 do
      let a = addr + i in
      Bytes.set t.pages.(page_of t a).bytes (Addr.offset a)
        (Char.chr ((v lsr (8 * i)) land 0xff))
    done

  let mapped_count t =
    Array.fold_left
      (fun acc p -> if p.perm = None then acc else acc + 1)
      0 t.pages

  let all_mapped t lo n =
    let rec go i = i >= n || (t.pages.(lo + i).perm <> None && go (i + 1)) in
    go 0
end

let fault_eq a b =
  match a, b with
  | Fault.Unmapped { addr = a1; access = x1 }, Fault.Unmapped { addr = a2; access = x2 } ->
    a1 = a2 && x1 = x2
  | ( Fault.Protection { addr = a1; access = x1; perm = p1 },
      Fault.Protection { addr = a2; access = x2; perm = p2 } ) ->
    a1 = a2 && x1 = x2 && Perm.equal p1 p2
  | (Fault.Unmapped _ | Fault.Protection _), _ -> false

let pp_outcome = function
  | Ok v -> Printf.sprintf "Ok %d" v
  | Error f -> Fault.to_string f

(* One random differential run: [steps] operations over a [n_pages]
   arena, driven by a deterministic PRNG state. *)
let differential_run ~seed ~steps ~n_pages =
  let rng = Random.State.make [| seed |] in
  let m = Machine.create ~tlb_entries:16 () in
  let base = Kernel.mmap m ~pages:n_pages in
  let model = Model.create base n_pages in
  Array.iter (fun p -> p.Model.perm <- Some Perm.Read_write) model.Model.pages;
  let rand_range () =
    let lo = Random.State.int rng n_pages in
    let n = 1 + Random.State.int rng (n_pages - lo) in
    (lo, n)
  in
  let agree what expected actual =
    if
      (match expected, actual with
       | Ok v1, Ok v2 -> v1 = v2
       | Error f1, Error f2 -> fault_eq f1 f2
       | (Ok _ | Error _), _ -> false)
      = false
    then
      Alcotest.failf "seed %d, %s: oracle %s but mmu %s" seed what
        (pp_outcome expected) (pp_outcome actual)
  in
  for _step = 1 to steps do
    match Random.State.int rng 100 with
    | r when r < 70 ->
      (* Access: mostly within the arena, occasionally just outside. *)
      let width = List.nth [ 1; 2; 4; 8 ] (Random.State.int rng 4) in
      let addr =
        base
        + Random.State.int rng ((n_pages * Addr.page_size) - width + 1)
        + (if Random.State.int rng 20 = 0 then n_pages * Addr.page_size else 0)
      in
      if Random.State.bool rng then begin
        let expected =
          match Model.check_access model addr width Perm.Read with
          | Some f -> Error f
          | None -> Ok (Model.read model addr width)
        in
        let actual =
          match Mmu.load m addr ~width with
          | v -> Ok v
          | exception Fault.Trap f -> Error f
        in
        agree (Printf.sprintf "load %d @0x%x" width addr) expected actual
      end
      else begin
        let v = Random.State.full_int rng max_int in
        let expected =
          match Model.check_access model addr width Perm.Write with
          | Some f -> Error f
          | None -> Ok 0
        in
        let actual =
          match Mmu.store m addr ~width v with
          | () -> Ok 0
          | exception Fault.Trap f -> Error f
        in
        Model.write model addr width v;
        agree (Printf.sprintf "store %d @0x%x" width addr) expected actual
      end
    | r when r < 82 ->
      (* mprotect a random subrange; must fail atomically iff any page
         in it is unmapped. *)
      let lo, n = rand_range () in
      let perm =
        List.nth
          [ Perm.No_access; Perm.Read_only; Perm.Read_write ]
          (Random.State.int rng 3)
      in
      let addr = base + (lo * Addr.page_size) in
      let ok = Model.all_mapped model lo n in
      (match Kernel.mprotect m ~addr ~pages:n perm with
       | () ->
         if not ok then
           Alcotest.failf "seed %d: mprotect should have failed" seed;
         for i = lo to lo + n - 1 do
           model.Model.pages.(i).Model.perm <- Some perm
         done
       | exception Invalid_argument _ ->
         if ok then Alcotest.failf "seed %d: mprotect should have succeeded" seed)
    | r when r < 92 ->
      (* munmap a random subrange (same atomicity contract). *)
      let lo, n = rand_range () in
      let addr = base + (lo * Addr.page_size) in
      let ok = Model.all_mapped model lo n in
      (match Kernel.munmap m ~addr ~pages:n with
       | () ->
         if not ok then Alcotest.failf "seed %d: munmap should have failed" seed;
         for i = lo to lo + n - 1 do
           model.Model.pages.(i).Model.perm <- None
         done
       | exception Invalid_argument _ ->
         if ok then Alcotest.failf "seed %d: munmap should have succeeded" seed)
    | _ ->
      (* mmap_fixed: fresh zeroed RW frames, replacing whatever is there. *)
      let lo, n = rand_range () in
      Kernel.mmap_fixed m ~addr:(base + (lo * Addr.page_size)) ~pages:n;
      for i = lo to lo + n - 1 do
        let p = model.Model.pages.(i) in
        p.Model.perm <- Some Perm.Read_write;
        Bytes.fill p.Model.bytes 0 Addr.page_size '\000'
      done
  done;
  (* Mapped-page accounting must agree at the end of every run. *)
  check_int
    (Printf.sprintf "seed %d: mapped pages" seed)
    (Model.mapped_count model)
    (Page_table.mapped_pages m.Machine.page_table);
  (* Final sweep: every page's first word agrees (value or fault). *)
  for i = 0 to n_pages - 1 do
    let addr = base + (i * Addr.page_size) in
    let expected =
      match Model.check_access model addr 8 Perm.Read with
      | Some f -> Error f
      | None -> Ok (Model.read model addr 8)
    in
    let actual =
      match Mmu.load m addr ~width:8 with
      | v -> Ok v
      | exception Fault.Trap f -> Error f
    in
    agree (Printf.sprintf "final sweep page %d" i) expected actual
  done

let prop_differential =
  QCheck.Test.make ~name:"mmu: TLB-first = table-first oracle" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      differential_run ~seed ~steps:400 ~n_pages:24;
      true)

let test_differential_fixed_seeds () =
  (* A few long deterministic runs, heavier than the property batch. *)
  List.iter
    (fun seed -> differential_run ~seed ~steps:3_000 ~n_pages:48)
    [ 1; 7; 42; 1234 ]

(* ---- Demand-zero frames: a frame gets storage on its first write;
   until then every read path sees zeros. *)

let widths = [ 1; 2; 4; 8 ]

let test_fresh_frame_reads_zero () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:2 in
  List.iter
    (fun width ->
      check_int (Printf.sprintf "width %d at page start" width) 0
        (Mmu.load m a ~width);
      check_int (Printf.sprintf "width %d mid-page" width) 0
        (Mmu.load m (a + 1000) ~width))
    widths;
  (* The page-crossing byte path over two untouched frames. *)
  check_int "cross-page load" 0
    (Mmu.load m (a + Addr.page_size - 3) ~width:8);
  let ft = Frame_table.create () in
  let f = Frame_table.allocate ft (Stats.create ()) in
  Frame_table.incr_ref ft f;
  check_int "read_byte" 0 (Frame_table.read_byte ft f 4095);
  List.iter
    (fun width ->
      check_int (Printf.sprintf "read_word %d" width) 0
        (Frame_table.read_word ft f 8 ~width))
    widths

let test_spare_buffer_reused_zeroed () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  for w = 0 to (Addr.page_size / 8) - 1 do
    Mmu.store m (a + (w * 8)) ~width:8 (-1)
  done;
  Kernel.munmap m ~addr:a ~pages:1;
  Kernel.mmap_fixed m ~addr:a ~pages:1;
  (* Materialising the new frame must take the retired, dirty buffer
     (no fresh 4 KiB allocation) and hand it over zero-filled. *)
  let (_, promoted0, major0) = Gc.counters () in
  Mmu.store m (a + 64) ~width:8 5;
  let (_, promoted1, major1) = Gc.counters () in
  check_bool "spare buffer reused, no page-sized allocation" true
    (major1 -. major0 -. (promoted1 -. promoted0) < 512.);
  for w = 0 to (Addr.page_size / 8) - 1 do
    check_int (Printf.sprintf "word %d" w)
      (if w = 8 then 5 else 0)
      (Mmu.load m (a + (w * 8)) ~width:8)
  done

let test_alias_shares_materialised_storage () =
  let m = Machine.create () in
  (* Write through the shadow alias first, read through the canonical
     page: both pages map one still-untouched frame. *)
  let canonical = Kernel.mmap m ~pages:1 in
  let shadow = Kernel.mremap_alias m ~src:canonical ~pages:1 in
  Mmu.store m (shadow + 24) ~width:8 0x5eed;
  check_int "shadow write visible canonically" 0x5eed
    (Mmu.load m (canonical + 24) ~width:8);
  check_int "rest of the canonical page still zero" 0
    (Mmu.load m canonical ~width:8);
  (* And the reverse. *)
  let canonical = Kernel.mmap m ~pages:1 in
  let shadow = Kernel.mremap_alias m ~src:canonical ~pages:1 in
  Mmu.store m (canonical + 40) ~width:4 0xBEEF;
  check_int "canonical write visible through shadow" 0xBEEF
    (Mmu.load m (shadow + 40) ~width:4);
  Mmu.store m (shadow + 40) ~width:4 7;
  check_int "and back again" 7 (Mmu.load m (canonical + 40) ~width:4)

let test_exempt_and_heap_scan_over_untouched () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:2 in
  List.iter
    (fun width ->
      check_int (Printf.sprintf "load_exempt width %d" width) 0
        (Mmu.load_exempt m (a + 16) ~width))
    widths;
  check_int "load_exempt cross-page" 0
    (Mmu.load_exempt m (a + Addr.page_size - 5) ~width:8);
  let seen = ref 0 in
  Roots.iter_heap_words m ~addr:a ~bytes:(2 * Addr.page_size) (fun _ _ ->
      incr seen);
  check_int "no non-zero heap words in untouched frames" 0 !seen;
  Mmu.store_exempt m (a + Addr.page_size + 8) ~width:8 a;
  Roots.iter_heap_words m ~addr:a ~bytes:(2 * Addr.page_size) (fun w v ->
      check_int "scanned word address" (a + Addr.page_size + 8) w;
      check_int "scanned word value" a v;
      incr seen);
  check_int "exactly the written word" 1 !seen

let test_frame_accounting_unchanged_by_lazy_storage () =
  let m = Machine.create () in
  let frames () = m.Machine.frames in
  let allocated () = (Stats.snapshot m.Machine.stats).Stats.frames_allocated in
  let a = Kernel.mmap m ~pages:5 in
  check_int "frames_allocated counts untouched frames" 5 (allocated ());
  check_int "live counts untouched frames" 5 (Frame_table.live_frames (frames ()));
  check_int "peak counts untouched frames" 5 (Frame_table.peak_frames (frames ()));
  Mmu.store m (a + Addr.page_size) ~width:8 1;
  check_int "a write allocates no frame" 5 (allocated ());
  check_int "nor changes live" 5 (Frame_table.live_frames (frames ()));
  Kernel.munmap m ~addr:a ~pages:5;
  check_int "all released" 0 (Frame_table.live_frames (frames ()));
  check_int "peak retained" 5 (Frame_table.peak_frames (frames ()));
  ignore (Kernel.mmap m ~pages:3);
  check_int "reallocation counted" 8 (allocated ());
  check_int "peak unchanged below it" 5 (Frame_table.peak_frames (frames ()))

(* ---- Allocation gates: the access path allocates nothing on a TLB hit,
   and a whole fork-per-connection ghttpd connection stays within a
   fixed word budget.  Native code allocates deterministically, so these
   are exact structural checks, not timings. *)

(* Minor words [f] allocates, net of the boxed float the measurement
   itself keeps live across the call. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let minor_words_net f = minor_words_of f -. minor_words_of ignore

let check_no_allocation what f =
  f ();
  (* warm: TLB filled, cache sets built *)
  Alcotest.(check (float 0.)) what 0. (minor_words_net f)

let test_mmu_hit_path_allocation_free () =
  let m = Machine.create () in
  let a = Kernel.mmap m ~pages:1 in
  check_no_allocation "1000 TLB-hit loads" (fun () ->
      for i = 0 to 999 do
        ignore (Mmu.load m (a + (i land 511 * 8)) ~width:8)
      done);
  check_no_allocation "1000 TLB-hit stores" (fun () ->
      for i = 0 to 999 do
        Mmu.store m (a + (i land 511 * 8)) ~width:8 i
      done)

let test_ours_access_path_allocation_free () =
  let m = Machine.create () in
  let s = Runtime.Scheme_spec.build Runtime.Scheme_spec.ours m in
  let p = s.Runtime.Scheme.malloc ~site:"test" 512 in
  check_no_allocation "1000 ours loads" (fun () ->
      for i = 0 to 999 do
        ignore (s.Runtime.Scheme.load (p + (i land 63 * 8)) ~width:8)
      done);
  check_no_allocation "1000 ours stores" (fun () ->
      for i = 0 to 999 do
        s.Runtime.Scheme.store (p + (i land 63 * 8)) ~width:8 i
      done)

(* One fork-per-connection ghttpd connection under [ours]: a fresh
   machine and scheme, the fork cost, the handler. *)
let ghttpd_connection conn =
  let m = Machine.create () in
  let s = Runtime.Scheme_spec.build Runtime.Scheme_spec.ours m in
  s.Runtime.Scheme.compute Runtime.Process.fork_cost_instructions;
  Workload.Servers.ghttpd.Workload.Spec.handler conn s

(* Minor words come from [Gc.minor_words]: [Gc.counters]' minor count is
   not exact on OCaml 5.1. *)
let test_connection_word_budget () =
  ghttpd_connection 0;
  let _, promoted0, major0 = Gc.counters () in
  let minor = minor_words_net (fun () -> ghttpd_connection 1) in
  let _, promoted1, major1 = Gc.counters () in
  let direct_major = major1 -. major0 -. (promoted1 -. promoted0) in
  let total = minor +. direct_major in
  if total > 6000. then
    Alcotest.failf "connection allocated %.0f words (budget 6000)" total;
  if direct_major > 2048. then
    Alcotest.failf "connection allocated %.0f words directly in the major \
                    heap (budget 2048)"
      direct_major

(* Shadow bookkeeping budgets, the same as bench/validate_results.exe's:
   a warm [pool_alloc] + [pool_free] under [ours] (mean over 256 pairs,
   measured 54 words) and [pool_destroy] per object (measured 0), each
   with 25% and at least 2 words of headroom. *)
let warm_ours_pool () =
  let s = Runtime.Scheme_spec.build Runtime.Scheme_spec.ours (Machine.create ()) in
  let p = s.Runtime.Scheme.pool_create () in
  p.Runtime.Scheme.pool_free (p.Runtime.Scheme.pool_alloc ~site:"test" 64);
  p

let test_shadow_alloc_free_word_budget () =
  let p = warm_ours_pool () in
  let n = 256 in
  let words =
    minor_words_net (fun () ->
        for _ = 1 to n do
          p.Runtime.Scheme.pool_free (p.Runtime.Scheme.pool_alloc ~site:"test" 64)
        done)
    /. float_of_int n
  in
  if words > 68. then
    Alcotest.failf "warm pool_alloc + pool_free allocated %.1f words (budget 68)"
      words

let test_pool_destroy_word_budget () =
  let p = warm_ours_pool () in
  let n = 256 in
  let objs = Array.init n (fun _ -> p.Runtime.Scheme.pool_alloc ~site:"test" 64) in
  Array.iteri (fun i a -> if i land 1 = 0 then p.Runtime.Scheme.pool_free a) objs;
  let words = minor_words_net p.Runtime.Scheme.pool_destroy /. float_of_int (n + 1) in
  if words > 2. then
    Alcotest.failf "pool_destroy allocated %.1f words per object (budget 2)" words

(* ---- Reference models: the set-of-records LRU cache and TLB these
   modules used before their sets became flat or lazily built.  The
   real modules must make the same hit/miss decision and evict the
   same victim on every step. *)

module Ref_cache = struct
  type slot = { mutable line : int; mutable stamp : int }
  type t = { sets : slot array array; shift : int; mutable clock : int }

  let create ~sets ~ways ~line_bytes =
    let rec log2 k v = if v >= line_bytes then k else log2 (k + 1) (v * 2) in
    {
      sets =
        Array.init sets (fun _ ->
            Array.init ways (fun _ -> { line = -1; stamp = 0 }));
      shift = log2 0 1;
      clock = 0;
    }

  (* [true] on a hit. *)
  let access t ~phys_addr =
    let line = phys_addr lsr t.shift in
    let set = t.sets.(line mod Array.length t.sets) in
    t.clock <- t.clock + 1;
    match Array.find_opt (fun s -> s.line = line) set with
    | Some s ->
      s.stamp <- t.clock;
      true
    | None ->
      let victim = ref set.(0) in
      Array.iter (fun s -> if s.stamp < !victim.stamp then victim := s) set;
      !victim.line <- line;
      !victim.stamp <- t.clock;
      false

  let flush t = Array.iter (Array.iter (fun s -> s.line <- -1)) t.sets

  let resident t =
    Array.fold_left
      (Array.fold_left (fun acc s -> if s.line >= 0 then s.line :: acc else acc))
      [] t.sets
    |> List.sort compare
end

module Ref_tlb = struct
  type slot = { mutable page : int; mutable stamp : int }
  type t = { sets : slot array array; mutable clock : int }

  let create ~entries ~ways =
    {
      sets =
        Array.init (entries / ways) (fun _ ->
            Array.init ways (fun _ -> { page = -1; stamp = 0 }));
      clock = 0;
    }

  let set_of t page = t.sets.(page mod Array.length t.sets)

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let lookup t ~page =
    match Array.find_opt (fun s -> s.page = page) (set_of t page) with
    | Some s ->
      s.stamp <- tick t;
      true
    | None -> false

  let insert t ~page =
    let set = set_of t page in
    let victim = ref set.(0) in
    Array.iter
      (fun s ->
        if s.page = page then victim := s
        else if !victim.page <> page && s.stamp < !victim.stamp then victim := s)
      set;
    !victim.page <- page;
    !victim.stamp <- tick t

  let invalidate_range t ~page ~pages =
    Array.iter
      (Array.iter (fun s ->
           if s.page >= page && s.page < page + pages then s.page <- -1))
      t.sets

  let flush t = Array.iter (Array.iter (fun s -> s.page <- -1)) t.sets

  let resident t =
    Array.fold_left
      (Array.fold_left (fun acc s -> if s.page >= 0 then s.page :: acc else acc))
      [] t.sets
    |> List.sort compare
end

let check_ints = check (Alcotest.list Alcotest.int)

let cache_differential ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let sets = 8 and ways = 4 and line_bytes = 64 in
  let real = Cache.create ~sets ~ways ~line_bytes () in
  let oracle = Ref_cache.create ~sets ~ways ~line_bytes in
  let stats = Stats.create () in
  for step = 1 to steps do
    let what = Printf.sprintf "seed %d step %d" seed step in
    if Random.State.int rng 200 = 0 then begin
      Cache.flush real;
      Ref_cache.flush oracle
    end
    else begin
      (* Three times the cache's lines, so sets keep overflowing. *)
      let phys_addr = Random.State.int rng (3 * sets * ways * line_bytes) in
      let hits0 = (Stats.snapshot stats).Stats.cache_hits in
      Cache.access real stats ~phys_addr;
      let hit = (Stats.snapshot stats).Stats.cache_hits > hits0 in
      check_bool (what ^ ": hit/miss") (Ref_cache.access oracle ~phys_addr) hit
    end;
    check_ints (what ^ ": resident lines") (Ref_cache.resident oracle)
      (Cache.resident_lines real)
  done

(* Lookups that fill on a miss (an access), ranged shootdowns (a protect
   or unmap), single-page shootdowns (a remap) and full flushes. *)
let tlb_differential ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let entries = 16 and ways = 4 and n_pages = 48 in
  let real = Tlb.create ~entries ~ways () in
  let oracle = Ref_tlb.create ~entries ~ways in
  let stats = Stats.create () in
  for step = 1 to steps do
    let what = Printf.sprintf "seed %d step %d" seed step in
    let page = Random.State.int rng n_pages in
    (match Random.State.int rng 100 with
     | r when r < 80 ->
       let hit = Pte.is_present (Tlb.lookup_pte real stats ~page) in
       check_bool (what ^ ": hit/miss") (Ref_tlb.lookup oracle ~page) hit;
       if not hit then begin
         Tlb.insert real ~page ~frame:page ~perm:Perm.Read_write;
         Ref_tlb.insert oracle ~page
       end
     | r when r < 92 ->
       let pages = 1 + Random.State.int rng (if r < 86 then 4 else n_pages) in
       Tlb.invalidate_range real ~page ~pages;
       Ref_tlb.invalidate_range oracle ~page ~pages
     | r when r < 99 ->
       Tlb.invalidate_page real ~page;
       Ref_tlb.invalidate_range oracle ~page ~pages:1
     | _ ->
       Tlb.flush real stats;
       Ref_tlb.flush oracle);
    check_ints (what ^ ": resident pages") (Ref_tlb.resident oracle)
      (Tlb.resident_pages real)
  done

let test_reference_models () =
  List.iter
    (fun seed ->
      cache_differential ~seed ~steps:4_000;
      tlb_differential ~seed ~steps:4_000)
    [ 1; 7; 42; 1234; 99991 ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vmm-fastpath"
    [
      ("pte", [ Alcotest.test_case "encoding" `Quick test_pte_roundtrip ]);
      ( "tlb-coherence",
        [
          Alcotest.test_case "remap after munmap" `Quick
            test_remap_after_munmap_sees_new_frame;
          Alcotest.test_case "mmap_fixed over live mapping" `Quick
            test_mmap_fixed_over_live_mapping_invalidates;
          Alcotest.test_case "alias at warm page" `Quick
            test_alias_at_over_warm_page;
          Alcotest.test_case "mprotect through warm TLB" `Quick
            test_mprotect_visible_through_warm_tlb;
        ] );
      ( "fast-path-structure",
        [
          Alcotest.test_case "TLB hit skips page table" `Quick
            test_tlb_hit_skips_page_table;
          Alcotest.test_case "TLB miss walks once" `Quick
            test_tlb_miss_walks_once;
          Alcotest.test_case "page-table directory grows both ways" `Quick
            test_page_table_directory_grows_both_ways;
          Alcotest.test_case "word widths" `Quick test_word_access_all_widths;
        ] );
      ( "shootdown",
        [
          Alcotest.test_case "ranged counting" `Quick
            test_ranged_shootdown_counting;
          Alcotest.test_case "one trace event per bulk call" `Quick
            test_shootdown_traced_once;
          Alcotest.test_case "invalidate_range narrow/wide" `Quick
            test_invalidate_range_narrow_and_wide;
        ] );
      ( "differential",
        Alcotest.test_case "fixed seeds" `Slow test_differential_fixed_seeds
        :: qcheck [ prop_differential ] );
      ( "demand-zero",
        [
          Alcotest.test_case "fresh frame reads zero" `Quick
            test_fresh_frame_reads_zero;
          Alcotest.test_case "spare buffer reused zeroed" `Quick
            test_spare_buffer_reused_zeroed;
          Alcotest.test_case "alias shares materialised storage" `Quick
            test_alias_shares_materialised_storage;
          Alcotest.test_case "exempt reads and heap scan" `Quick
            test_exempt_and_heap_scan_over_untouched;
          Alcotest.test_case "frame accounting" `Quick
            test_frame_accounting_unchanged_by_lazy_storage;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "MMU TLB-hit path" `Quick
            test_mmu_hit_path_allocation_free;
          Alcotest.test_case "ours access path" `Quick
            test_ours_access_path_allocation_free;
          Alcotest.test_case "ghttpd connection budget" `Quick
            test_connection_word_budget;
          Alcotest.test_case "shadow alloc+free budget" `Quick
            test_shadow_alloc_free_word_budget;
          Alcotest.test_case "pool destroy budget" `Quick
            test_pool_destroy_word_budget;
        ] );
      ( "reference-models",
        [
          Alcotest.test_case "cache and TLB LRU" `Quick test_reference_models;
        ] );
    ]
