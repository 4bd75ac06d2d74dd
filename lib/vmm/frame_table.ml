(* Physical memory as a growable slot array indexed by frame number —
   frame lookup is one bounds-checked array read, not a hash probe.
   Freed frame numbers go on a free list and are reused (as a real
   physical allocator would), which also keeps the array bounded by the
   *peak* frame count rather than the cumulative allocation count.

   Frames are demand-zero, as a kernel serves fresh anonymous pages:
   [allocate] attaches no storage.  Until a frame's first write its slot
   points at [zero_page], a shared all-zero sentinel that is never
   written, so every read path sees zeros for free; the first write
   swaps in a real buffer. *)

type frame = int

type slot = { mutable storage : Bytes.t; mutable refs : int }

let zero_page = Bytes.make Addr.page_size '\000'

(* Marks a slot array entry with no frame behind it. *)
let no_slot = { storage = zero_page; refs = 0 }

type t = {
  mutable slots : slot array;
  mutable free : frame list; (* retired frame numbers, ready for reuse *)
  mutable next : frame;      (* never-used watermark *)
  mutable live : int;
  mutable peak : int;
  mutable spare : Bytes.t list;
      (* retired page buffers, zero-filled when a first write takes
         one: a munmap/mmap churn loop recycles storage instead of
         hammering the GC with fresh 4 KiB allocations *)
  mutable lookups : int;     (* diagnostic: slot lookups performed *)
}

let create () =
  { slots = Array.make 16 no_slot; free = []; next = 0; live = 0; peak = 0;
    spare = []; lookups = 0 }

let grow t want =
  let len = ref (Array.length t.slots) in
  while !len <= want do
    len := !len * 2
  done;
  let slots = Array.make !len no_slot in
  Array.blit t.slots 0 slots 0 (Array.length t.slots);
  t.slots <- slots

let allocate t stats =
  let f =
    match t.free with
    | f :: rest ->
      t.free <- rest;
      f
    | [] ->
      let f = t.next in
      t.next <- t.next + 1;
      if f >= Array.length t.slots then grow t f;
      f
  in
  t.slots.(f) <- { storage = zero_page; refs = 0 };
  Stats.count_frame_allocated stats;
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live;
  f

let slot t f =
  t.lookups <- t.lookups + 1;
  if f < 0 || f >= Array.length t.slots then
    invalid_arg (Printf.sprintf "Frame_table: unknown frame %d" f)
  else
    let s = Array.unsafe_get t.slots f in
    if s == no_slot then
      invalid_arg (Printf.sprintf "Frame_table: unknown frame %d" f)
    else s

(* The storage a write may modify: the first write to a frame takes a
   retired buffer (zero-filled here) or a fresh one.  Every mapping of
   the frame shares the slot, so the buffer is visible through all of
   them at once. *)
let writable t s =
  if s.storage == zero_page then begin
    let b =
      match t.spare with
      | b :: rest ->
        t.spare <- rest;
        Bytes.fill b 0 Addr.page_size '\000';
        b
      | [] -> Bytes.make Addr.page_size '\000'
    in
    s.storage <- b
  end;
  s.storage

let incr_ref t f =
  let s = slot t f in
  s.refs <- s.refs + 1

let decr_ref t f =
  let s = slot t f in
  s.refs <- s.refs - 1;
  if s.refs < 0 then
    failwith
      (Printf.sprintf
         "Frame_table.decr_ref: frame %d refcount went negative (invariant: \
          every decr_ref pairs a prior incr_ref)"
         f);
  if s.refs = 0 then begin
    t.slots.(f) <- no_slot;
    t.free <- f :: t.free;
    if s.storage != zero_page then t.spare <- s.storage :: t.spare;
    t.live <- t.live - 1
  end

let ref_count t f = (slot t f).refs
let live_frames t = t.live
let peak_frames t = t.peak

let read_byte t f off = Char.code (Bytes.get (slot t f).storage off)

let write_byte t f off v =
  Bytes.set (writable t (slot t f)) off (Char.chr (v land 0xff))

(* Word-wide access: one slot lookup and one [Bytes] primitive for the
   whole access.  [off + width] must stay within the page (the MMU's
   single-page fast path guarantees it); widths are 1/2/4/8 as validated
   by the MMU.  Values are little-endian, matching the byte accessors:
   an 8-byte value round-trips modulo 2^63 exactly as the per-byte loop
   did (both truncate the same way on OCaml's 63-bit ints). *)
let read_word t f off ~width =
  let s = (slot t f).storage in
  match width with
  | 1 -> Char.code (Bytes.get s off)
  | 2 -> Bytes.get_uint16_le s off
  | 4 -> Int32.to_int (Bytes.get_int32_le s off) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le s off)
  | _ -> invalid_arg (Printf.sprintf "Frame_table.read_word: width %d" width)

let write_word t f off v ~width =
  let s = writable t (slot t f) in
  match width with
  | 1 -> Bytes.set s off (Char.chr (v land 0xff))
  | 2 -> Bytes.set_uint16_le s off (v land 0xffff)
  | 4 -> Bytes.set_int32_le s off (Int32.of_int v)
  | 8 -> Bytes.set_int64_le s off (Int64.of_int v)
  | _ -> invalid_arg (Printf.sprintf "Frame_table.write_word: width %d" width)

let exists t f =
  f >= 0 && f < Array.length t.slots && t.slots.(f) != no_slot

let lookup_count t = t.lookups
