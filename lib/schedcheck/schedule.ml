(* On-disk schedule files.

   A schedule is everything needed to reproduce one schedcheck run
   exactly: the workload parameters (protocol, cpus, ops per cpu,
   workload seed, mutant) and the tie-break key sequence the engine
   consumed. The format is a trivial line-oriented text file so minimal
   counterexamples can be committed to the repository and read in code
   review:

     mmsched 1
     protocol adv
     cpus 4
     ops 12
     workload-seed 42
     mutant none
     keys 0 1 3 0 2 ...

   [keys] is last and may be empty (the empty schedule is the default
   fifo order: every key 0). *)

type t = {
  protocol : string;  (* "adv" | "rw", as Config.protocol_to_string *)
  cpus : int;
  ops : int;  (* ops per cpu *)
  workload_seed : int;
  mutant : string;  (* Mm_sim.Mutant.name, or "none" *)
  keys : int array;
}

let magic = "mmsched 1"

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" magic;
      Printf.fprintf oc "protocol %s\n" t.protocol;
      Printf.fprintf oc "cpus %d\n" t.cpus;
      Printf.fprintf oc "ops %d\n" t.ops;
      Printf.fprintf oc "workload-seed %d\n" t.workload_seed;
      Printf.fprintf oc "mutant %s\n" t.mutant;
      Printf.fprintf oc "keys%s\n"
        (String.concat ""
           (List.map (Printf.sprintf " %d") (Array.to_list t.keys))))

let load path =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        match List.rev !lines with
        | header :: fields when header = magic -> (
          let field name =
            let prefix = name ^ " " in
            let n = String.length prefix in
            List.find_map
              (fun l ->
                if String.length l >= n && String.sub l 0 n = prefix then
                  Some (String.sub l n (String.length l - n))
                else if l = name then Some ""
                else None)
              fields
          in
          let int_field name =
            match field name with
            | None -> fail "%s: missing %S line" path name
            | Some v -> (
              match int_of_string_opt (String.trim v) with
              | Some i -> Ok i
              | None -> fail "%s: bad %s value %S" path name v)
          in
          let str_field name =
            match field name with
            | None -> fail "%s: missing %S line" path name
            | Some v -> Ok (String.trim v)
          in
          let ( let* ) r f = Result.bind r f in
          let* protocol = str_field "protocol" in
          let* cpus = int_field "cpus" in
          let* ops = int_field "ops" in
          let* workload_seed = int_field "workload-seed" in
          let* mutant = str_field "mutant" in
          let* keys =
            match field "keys" with
            | None -> fail "%s: missing \"keys\" line" path
            | Some v -> (
              let words =
                List.filter (( <> ) "") (String.split_on_char ' ' v)
              in
              match List.map int_of_string_opt words with
              | exception _ -> fail "%s: bad keys line" path
              | opts ->
                if List.mem None opts then fail "%s: bad keys line" path
                else
                  Ok (Array.of_list (List.map Option.get opts)))
          in
          Ok { protocol; cpus; ops; workload_seed; mutant; keys })
        | header :: _ ->
          fail "%s: bad header %S (expected %S)" path header magic
        | [] -> fail "%s: empty file" path)
