open Vmm

type state =
  | Live
  | Freed of { free_site : string }

type obj = {
  id : int;
  canonical : Addr.t;
  shadow_base : Addr.t;
  pages : int;
  user_addr : Addr.t;
  size : int;
  alloc_site : string;
  mutable state : state;
}

let vacant =
  {
    id = -1;
    canonical = 0;
    shadow_base = 0;
    pages = 0;
    user_addr = 0;
    size = 0;
    alloc_site = "";
    state = Live;
  }

type t = {
  by_page : obj Page_map.t; (* every page an object spans -> the object *)
  mutable next_id : int;
  mutable live : int;
  mutable freed_retained : int;
}

let create () =
  {
    by_page = Page_map.create ~empty:vacant;
    next_id = 0;
    live = 0;
    freed_retained = 0;
  }

let register t ~canonical ~shadow_base ~pages ~user_addr ~size ~alloc_site =
  let obj =
    {
      id = t.next_id;
      canonical;
      shadow_base;
      pages;
      user_addr;
      size;
      alloc_site;
      state = Live;
    }
  in
  t.next_id <- t.next_id + 1;
  t.live <- t.live + 1;
  let first = Addr.page_index shadow_base in
  for page = first to first + pages - 1 do
    Page_map.set t.by_page page obj
  done;
  obj

let find_by_addr t addr =
  let obj = Page_map.find t.by_page (Addr.page_index addr) in
  if obj == vacant then None else Some obj

let find_live_by_user_addr t addr =
  match find_by_addr t addr with
  | Some obj when obj.user_addr = addr && obj.state = Live -> Some obj
  | Some _ | None -> None

let mark_freed t obj ~free_site =
  (match obj.state with
   | Live ->
     t.live <- t.live - 1;
     t.freed_retained <- t.freed_retained + 1
   | Freed _ -> ());
  obj.state <- Freed { free_site }

let forget_range t ~base ~pages =
  let first = Addr.page_index base in
  for page = first to first + pages - 1 do
    let obj = Page_map.find t.by_page page in
    if obj != vacant then begin
      (match obj.state with
       | Live -> t.live <- t.live - 1
       | Freed _ -> t.freed_retained <- t.freed_retained - 1);
      (* Remove every page of the object to keep counts consistent. *)
      let obj_first = Addr.page_index obj.shadow_base in
      for p = obj_first to obj_first + obj.pages - 1 do
        Page_map.remove t.by_page p
      done
    end
  done

let live_count t = t.live
let freed_retained_count t = t.freed_retained

(* [by_page] holds one binding per page an object spans; visiting an
   object only from its first page yields each live object exactly
   once, in ascending shadow-address order. *)
let iter_live t f =
  Page_map.iter t.by_page (fun page obj ->
      if obj.state = Live && page = Addr.page_index obj.shadow_base then f obj)
