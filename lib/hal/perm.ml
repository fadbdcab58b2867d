(* Access permissions attached to a virtual page.

   [cow] is the software-only copy-on-write marker from the paper (Fig 8:
   "Use the first unused bit as copy-on-write"); it lives in a
   software-available PTE bit on every supported ISA. [mpk_key] models the
   Intel MPK protection-key tag (Table 5 evaluates adding MPK support).

   There are only 512 distinct permissions (5 flags x 16 keys), so they
   are all built once and [make] returns the shared record: a decoded
   leaf in the page-table mirror points at one of these instead of
   carrying a private copy. The type is private, so every value comes
   from [make] and equal permissions are physically equal. *)

type t = {
  read : bool;
  write : bool;
  execute : bool;
  user : bool;
  cow : bool;
  mpk_key : int; (* 0..15; 0 means "no key" on ISAs without MPK *)
}

let bit b i = if b then 1 lsl i else 0

let index ~read ~write ~execute ~user ~cow ~mpk_key =
  bit read 0 lor bit write 1 lor bit execute 2 lor bit user 3 lor bit cow 4
  lor (mpk_key lsl 5)

let all =
  Array.init 512 (fun i ->
      let flag k = i land (1 lsl k) <> 0 in
      {
        read = flag 0;
        write = flag 1;
        execute = flag 2;
        user = flag 3;
        cow = flag 4;
        mpk_key = i lsr 5;
      })

let make ?(read = true) ?(write = false) ?(execute = false) ?(user = true)
    ?(cow = false) ?(mpk_key = 0) () =
  if mpk_key < 0 || mpk_key > 15 then invalid_arg "Perm.make: mpk_key";
  all.(index ~read ~write ~execute ~user ~cow ~mpk_key)

let none = make ~read:false ()
let r = make ()
let rw = make ~write:true ()
let rx = make ~execute:true ()
let rwx = make ~write:true ~execute:true ()

let equal a b = a == b

let index_of t =
  index ~read:t.read ~write:t.write ~execute:t.execute ~user:t.user
    ~cow:t.cow ~mpk_key:t.mpk_key

let set_flag t k b = all.(index_of t land lnot (1 lsl k) lor bit b k)
let with_write t write = set_flag t 1 write
let with_cow t cow = set_flag t 4 cow
let with_mpk t mpk_key =
  if mpk_key < 0 || mpk_key > 15 then invalid_arg "Perm.with_mpk";
  all.(index_of t land 31 lor (mpk_key lsl 5))

let allows t ~write = t.read && ((not write) || t.write)

let to_string t =
  Printf.sprintf "%c%c%c%c%s%s"
    (if t.read then 'r' else '-')
    (if t.write then 'w' else '-')
    (if t.execute then 'x' else '-')
    (if t.user then 'u' else 'k')
    (if t.cow then "+cow" else "")
    (if t.mpk_key <> 0 then Printf.sprintf "+pk%d" t.mpk_key else "")

let pp fmt t = Format.pp_print_string fmt (to_string t)
