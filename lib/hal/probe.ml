(* The per-page observation byte the differential oracle compares. *)

let mapped = 1
let writable = 2
let resident = 4

let code ~writable:w ~resident:r =
  Char.unsafe_chr
    (mapped lor (if w then writable else 0) lor if r then resident else 0)

let make ~page_size ranges fill =
  let total =
    List.fold_left (fun n (_, len) -> n + (len / page_size)) 0 ranges
  in
  let buf = Bytes.make total '\000' in
  ignore
    (List.fold_left
       (fun off (addr, len) ->
         let pages = len / page_size in
         if pages > 0 then fill buf ~off ~addr ~pages;
         off + pages)
       0 ranges);
  Bytes.unsafe_to_string buf
