let trace_syscall (m : Machine.t) name pages =
  if Telemetry.Sink.enabled m.trace then
  Telemetry.Sink.emit m.trace (fun () ->
      Telemetry.Event.Syscall { name; pages })

(* One ranged TLB shootdown: a single sweep of the TLB, one stats count
   and one trace event for the whole range — never one per page.  This
   is the batching the paper's pooldestroy-time bulk mprotect relies on. *)
let shootdown_range (m : Machine.t) ~page ~pages =
  Tlb.invalidate_range m.tlb ~page ~pages;
  Stats.count_tlb_shootdown m.stats ~pages;
  if Telemetry.Sink.enabled m.trace then
    Telemetry.Sink.emit m.trace (fun () -> Telemetry.Event.Tlb_flush { pages })

let check_aligned name addr =
  if not (Addr.is_page_aligned addr) then
    invalid_arg (Printf.sprintf "Kernel.%s: unaligned address 0x%x" name addr)

let check_pages name pages =
  if pages <= 0 then invalid_arg (Printf.sprintf "Kernel.%s: pages <= 0" name)

(* Install a mapping for one page, releasing any previous mapping of that
   virtual page first (MAP_FIXED semantics).  The TLB is shot down on
   every remap, so a cached translation can never outlive its page-table
   entry — the fast path's coherence invariant. *)
let map_page (m : Machine.t) page frame perm =
  let old = Page_table.pte m.page_table ~page in
  if Pte.is_present old then begin
    ignore (Page_table.unmap m.page_table ~page);
    Tlb.invalidate_page m.tlb ~page;
    Frame_table.decr_ref m.frames (Pte.frame old)
  end;
  Page_table.map m.page_table m.stats ~page ~frame ~perm;
  Frame_table.incr_ref m.frames frame

let map_fresh_range (m : Machine.t) base pages =
  for i = 0 to pages - 1 do
    let frame = Frame_table.allocate m.frames m.stats in
    map_page m (Addr.page_index base + i) frame Perm.Read_write
  done

let mmap (m : Machine.t) ~pages =
  check_pages "mmap" pages;
  Stats.count_syscall m.stats Stats.Sys_mmap;
  trace_syscall m "mmap" pages;
  let base = Machine.fresh_pages m pages in
  map_fresh_range m base pages;
  base

let mmap_fixed (m : Machine.t) ~addr ~pages =
  check_aligned "mmap_fixed" addr;
  check_pages "mmap_fixed" pages;
  Stats.count_syscall m.stats Stats.Sys_mmap;
  trace_syscall m "mmap" pages;
  map_fresh_range m addr pages

let frame_of_mapped (m : Machine.t) page =
  let e = Page_table.pte m.page_table ~page in
  if Pte.is_present e then Pte.frame e
  else
    invalid_arg
      (Printf.sprintf "Kernel.mremap: source page %d not mapped" page)

let alias_range (m : Machine.t) ~src ~dst ~pages =
  (* Collect source frames first: if the ranges overlap, remapping the
     destination must not disturb a source page read later. *)
  let src_page = Addr.page_index src in
  let dst_page = Addr.page_index dst in
  if pages = 1 then
    map_page m dst_page (frame_of_mapped m src_page) Perm.Read_write
  else
    let frames = Array.init pages (fun i -> frame_of_mapped m (src_page + i)) in
    Array.iteri
      (fun i frame -> map_page m (dst_page + i) frame Perm.Read_write)
      frames

let mremap_alias (m : Machine.t) ~src ~pages =
  check_aligned "mremap_alias" src;
  check_pages "mremap_alias" pages;
  Stats.count_syscall m.stats Stats.Sys_mremap;
  trace_syscall m "mremap" pages;
  let dst = Machine.fresh_pages m pages in
  alias_range m ~src ~dst ~pages;
  dst

(* Vectored aliasing: one kernel crossing creates [copies] back-to-back
   aliases of the same canonical run, each a full alias of
   [src .. src+pages).  The copies are contiguous in fresh VA, so a
   later coalesced mprotect over consecutively-freed slab objects
   merges into a single range.  This is the "alias a slab at a time"
   OS enhancement the paper sketches as future work; validation happens
   before any mapping is touched so a rejected call leaves the machine
   unchanged. *)
let mremap_alias_slab (m : Machine.t) ~src ~pages ~copies =
  check_aligned "mremap_alias_slab" src;
  check_pages "mremap_alias_slab" pages;
  if copies <= 0 then invalid_arg "Kernel.mremap_alias_slab: copies <= 0";
  let src_page = Addr.page_index src in
  for i = 0 to pages - 1 do
    ignore (frame_of_mapped m (src_page + i))
  done;
  Stats.count_syscall m.stats Stats.Sys_mremap;
  trace_syscall m "mremap_slab" (pages * copies);
  let base = Machine.fresh_pages m (pages * copies) in
  for c = 0 to copies - 1 do
    alias_range m ~src ~dst:(base + (c * pages * Addr.page_size)) ~pages
  done;
  base

let mremap_alias_at (m : Machine.t) ~src ~dst ~pages =
  check_aligned "mremap_alias_at" src;
  check_aligned "mremap_alias_at" dst;
  check_pages "mremap_alias_at" pages;
  Stats.count_syscall m.stats Stats.Sys_mremap;
  trace_syscall m "mremap" pages;
  alias_range m ~src ~dst ~pages

let mprotect (m : Machine.t) ~addr ~pages perm =
  check_aligned "mprotect" addr;
  check_pages "mprotect" pages;
  Stats.count_syscall m.stats Stats.Sys_mprotect;
  trace_syscall m "mprotect" pages;
  let page = Addr.page_index addr in
  Page_table.set_perm_range m.page_table ~page ~pages perm;
  shootdown_range m ~page ~pages

let munmap (m : Machine.t) ~addr ~pages =
  check_aligned "munmap" addr;
  check_pages "munmap" pages;
  Stats.count_syscall m.stats Stats.Sys_munmap;
  trace_syscall m "munmap" pages;
  let page = Addr.page_index addr in
  (* Validate the whole range up front: a failed call must not leave a
     prefix unmapped with its TLB entries still live. *)
  for p = page to page + pages - 1 do
    if not (Page_table.is_mapped m.page_table ~page:p) then
      invalid_arg (Printf.sprintf "Page_table.unmap: page %d not mapped" p)
  done;
  for p = page to page + pages - 1 do
    let entry = Page_table.unmap m.page_table ~page:p in
    Frame_table.decr_ref m.frames entry.frame
  done;
  shootdown_range m ~page ~pages

let dummy_syscall (m : Machine.t) =
  Stats.count_syscall m.stats Stats.Sys_dummy;
  trace_syscall m "dummy" 0

let page_perm (m : Machine.t) addr =
  match Page_table.lookup m.page_table ~page:(Addr.page_index addr) with
  | Some { perm; _ } -> Some perm
  | None -> None
