type align =
  | Left
  | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render ~headers ?aligns rows =
  let cols = List.length headers in
  let aligns =
    match aligns with
    | Some a -> a
    | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) headers
  in
  let widths = Array.make cols 0 in
  let note row =
    List.iteri
      (fun i cell ->
        if i < cols && String.length cell > widths.(i) then
          widths.(i) <- String.length cell)
      row
  in
  note headers;
  List.iter note rows;
  let line row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let align = try List.nth aligns i with Failure _ -> Right in
           pad align widths.(i) cell)
         row)
  in
  let rule =
    String.concat "  "
      (List.init cols (fun i -> String.make widths.(i) '-'))
  in
  String.concat "\n" (line headers :: rule :: List.map line rows)

let fmt_cycles c = Printf.sprintf "%.2f" (c /. 1_000_000.)
let fmt_ratio r = Printf.sprintf "%.2f" r

let fmt_bytes b =
  let f = float_of_int b in
  if b >= 1 lsl 20 then Printf.sprintf "%.1f MiB" (f /. 1048576.)
  else if b >= 1024 then Printf.sprintf "%.1f KiB" (f /. 1024.)
  else Printf.sprintf "%d B" b
