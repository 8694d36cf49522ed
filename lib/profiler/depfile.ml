(* On-disk dependence files.

   DiscoPoP writes the merged dependences to a file that the phase-2
   parallelism-discovery tool reads back (§1.5); runtime merging is what
   shrinks these files from gigabytes to kilobytes (§2.3.5). The v2 format
   is one line per record:

     D <sink_line> <sink_thread> <TYPE> <src_line> <src_thread> <var> \
       <carrier|-> <racy:0|1> <count> <first_time> <first_index> <domain> \
       <risk>

   where the last four fields are the record's first-witness provenance
   ("-" when the record was built without it). v1 files (no provenance
   fields) still parse. [measure] reports what the file sizes would be with
   and without merging — the Table-in-§2.3.5 ablation. *)

let type_tag = Dep.dtype_to_string

let tag_type = function
  | "RAW" -> Dep.Raw
  | "WAR" -> Dep.War
  | "WAW" -> Dep.Waw
  | "INIT" -> Dep.Init
  | s -> invalid_arg ("Depfile: unknown dependence type " ^ s)

let record_line (d : Dep.t) count =
  Printf.sprintf "D %d %d %s %d %d %s %s %d %d" d.Dep.sink_line
    d.Dep.sink_thread (type_tag d.Dep.dtype) d.Dep.src_line d.Dep.src_thread
    (if d.Dep.var = "" then "_" else d.Dep.var)
    (match d.Dep.carrier with Some l -> string_of_int l | None -> "-")
    (if d.Dep.racy then 1 else 0)
    count

let prov_fields (p : Dep.prov option) =
  match p with
  | None -> "- - - -"
  | Some p ->
      Printf.sprintf "%d %d %d %.6g" p.Dep.first_time p.Dep.first_index
        p.Dep.witness_domain p.Dep.risk

let render (deps : Dep.Set_.t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# discopop-deps v2 records=%d instances=%d\n"
       (Dep.Set_.cardinal deps) (Dep.Set_.occurrences deps));
  List.iter
    (fun (d, n) ->
      Buffer.add_string buf (record_line d n);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (prov_fields (Dep.Set_.prov deps d));
      Buffer.add_char buf '\n')
    (Dep.Set_.to_list deps);
  Buffer.contents buf

let write path deps =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render deps))

exception Parse_error of string

let parse_line line : (Dep.t * int * Dep.prov option) option =
  if line = "" || line.[0] = '#' then None
  else
    let record sink sthr ty src srcthr var carrier racy count prov =
      Some
        ( { Dep.sink_line = int_of_string sink;
            sink_thread = int_of_string sthr;
            dtype = tag_type ty;
            src_line = int_of_string src;
            src_thread = int_of_string srcthr;
            var = (if var = "_" then "" else var);
            carrier =
              (if carrier = "-" then None else Some (int_of_string carrier));
            racy = racy = "1" },
          int_of_string count,
          prov )
    in
    match String.split_on_char ' ' line with
    | [ "D"; sink; sthr; ty; src; srcthr; var; carrier; racy; count ] ->
        (* v1: no provenance fields *)
        record sink sthr ty src srcthr var carrier racy count None
    | [ "D"; sink; sthr; ty; src; srcthr; var; carrier; racy; count; "-"; "-";
        "-"; "-" ] ->
        record sink sthr ty src srcthr var carrier racy count None
    | [ "D"; sink; sthr; ty; src; srcthr; var; carrier; racy; count; ftime;
        findex; domain; risk ] ->
        record sink sthr ty src srcthr var carrier racy count
          (Some
             { Dep.first_time = int_of_string ftime;
               first_index = int_of_string findex;
               witness_domain = int_of_string domain;
               risk = float_of_string risk })
    | _ -> raise (Parse_error ("Depfile: malformed line: " ^ line))

let parse (s : string) : Dep.Set_.t =
  let deps = Dep.Set_.create () in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         match parse_line line with
         | Some (d, count, prov) -> Dep.Set_.restore deps d ~count prov
         | None -> ());
  deps

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      parse (really_input_string ic n))

(* Sizes (in bytes) the dependence file would have with and without runtime
   merging — every dynamic instance would otherwise be its own record. *)
type sizes = { merged_bytes : int; unmerged_bytes : int; reduction : float }

let measure (deps : Dep.Set_.t) : sizes =
  let merged = ref 0 and unmerged = ref 0 in
  List.iter
    (fun (d, n) ->
      let len = String.length (record_line d n) + 1 in
      merged := !merged + len;
      unmerged := !unmerged + (n * (String.length (record_line d 1) + 1)))
    (Dep.Set_.to_list deps);
  { merged_bytes = !merged;
    unmerged_bytes = !unmerged;
    reduction =
      (if !merged = 0 then 1.0
       else float_of_int !unmerged /. float_of_int !merged) }
