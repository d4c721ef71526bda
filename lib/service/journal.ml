let stage = "service.journal"

type entry =
  | Submit of {
      sid : int;
      sjob : Job.t;
      sdigest : string;
      strace : string;
      spriority : string;
      sdeadline_ms : float option;
      scost_ms : float option;
    }
  | Settle of { tid : int; tdigest : string; toutcome : string }

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), table-driven                                  *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xedb88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffffl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xffl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xffffffffl

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)

let entry_json = function
  | Submit s ->
    Json.Obj
      ([
         ("t", Json.Str "submit");
         ("id", Json.int s.sid);
         ("digest", Json.Str s.sdigest);
         ("trace_id", Json.Str s.strace);
         ("priority", Json.Str s.spriority);
       ]
      @ (match s.sdeadline_ms with
        | Some d -> [ ("deadline_ms", Json.Num d) ]
        | None -> [])
      @ (match s.scost_ms with
        | Some c -> [ ("cost_ms", Json.Num c) ]
        | None -> [])
      @ [ ("job", Job.to_json s.sjob) ])
  | Settle s ->
    Json.Obj
      [
        ("t", Json.Str "settle");
        ("id", Json.int s.tid);
        ("digest", Json.Str s.tdigest);
        ("outcome", Json.Str s.toutcome);
      ]

let entry_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int name = Option.bind (Json.member name j) Json.to_int in
  let num name = Option.bind (Json.member name j) Json.to_float in
  match str "t" with
  | Some "submit" -> (
    match (int "id", str "digest", str "trace_id", str "priority",
           Json.member "job" j) with
    | Some sid, Some sdigest, Some strace, Some spriority, Some job_json -> (
      match Job.of_json job_json with
      | Ok sjob ->
        Some
          (Submit
             {
               sid;
               sjob;
               sdigest;
               strace;
               spriority;
               sdeadline_ms = num "deadline_ms";
               scost_ms = num "cost_ms";
             })
      | Error _ -> None)
    | _ -> None)
  | Some "settle" -> (
    match (int "id", str "digest", str "outcome") with
    | Some tid, Some tdigest, Some toutcome ->
      Some (Settle { tid; tdigest; toutcome })
    | _ -> None)
  | _ -> None

let frame entry =
  let payload = Json.to_string (entry_json entry) in
  Printf.sprintf "%d %08lx %s\n" (String.length payload) (crc32 payload)
    payload

(* ------------------------------------------------------------------ *)
(* Load                                                               *)

type loaded = { entries : entry list; truncated : bool }

(* One frame starting at [pos]: [Ok (entry, next_pos)] or [Error ()] for
   anything torn or corrupt — the caller truncates from [pos]. *)
let parse_frame data pos =
  let len = String.length data in
  match String.index_from_opt data pos '\n' with
  | None -> Error () (* no newline: the append was cut mid-write *)
  | Some nl -> (
    let line = String.sub data pos (nl - pos) in
    match String.index_opt line ' ' with
    | None -> Error ()
    | Some sp1 -> (
      match String.index_from_opt line (sp1 + 1) ' ' with
      | None -> Error ()
      | Some sp2 -> (
        match int_of_string_opt (String.sub line 0 sp1) with
        | None -> Error ()
        | Some plen ->
          let crc_hex = String.sub line (sp1 + 1) (sp2 - sp1 - 1) in
          let payload =
            String.sub line (sp2 + 1) (String.length line - sp2 - 1)
          in
          if String.length payload <> plen then Error ()
          else if Printf.sprintf "%08lx" (crc32 payload) <> crc_hex then
            Error ()
          else (
            match Json.of_string payload with
            | Error _ -> Error ()
            | Ok j -> (
              match entry_of_json j with
              | None -> Error ()
              | Some e -> Ok (e, if nl + 1 > len then len else nl + 1))))))

let load path =
  if not (Sys.file_exists path) then Ok { entries = []; truncated = false }
  else
    match open_in_bin path with
    | exception Sys_error m -> Core.Diag.fail ~stage m
    | ic ->
      let data =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let len = String.length data in
      let rec go acc pos =
        if pos >= len then { entries = List.rev acc; truncated = false }
        else
          match parse_frame data pos with
          | Ok (e, next) -> go (e :: acc) next
          | Error () -> { entries = List.rev acc; truncated = true }
      in
      Ok (go [] 0)

(* ------------------------------------------------------------------ *)
(* Append                                                             *)

type t = {
  jpath : string;
  mutable fd : Unix.file_descr option;
  mutable nappends : int;
}

let mkdir_p dir =
  let rec build d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      build (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  build dir

let open_append path =
  mkdir_p (Filename.dirname path);
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  with
  | fd -> Ok { jpath = path; fd = Some fd; nappends = 0 }
  | exception Unix.Unix_error (e, _, _) ->
    Core.Diag.failf ~stage
      ~context:[ ("path", path) ]
      "cannot open journal: %s" (Unix.error_message e)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let append t entry =
  match t.fd with
  | None -> () (* disabled after a failed append *)
  | Some fd -> (
    match
      write_all fd (frame entry);
      Unix.fsync fd
    with
    | () ->
      t.nappends <- t.nappends + 1;
      Telemetry.counter_add "service.journal_appends" 1
    | exception (Unix.Unix_error _ | Sys_error _) ->
      (* durability is gone; keep serving, loudly, without the journal *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None;
      Telemetry.counter_add "service.journal_errors" 1;
      Telemetry.Events.emit "journal.error"
        ~attrs:[ ("path", Telemetry.String t.jpath) ])

let appends t = t.nappends
let healthy t = t.fd <> None

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let rewrite path entries =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        List.iter (fun e -> write_all fd (frame e)) entries;
        Unix.fsync fd);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception (Unix.Unix_error _ | Sys_error _ as e) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Core.Diag.failf ~stage
      ~context:[ ("path", path) ]
      "journal rewrite failed: %s" (Printexc.to_string e)
