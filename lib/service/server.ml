let stage = "service.protocol"

let diag_json (d : Core.Diag.t) =
  Json.Obj
    [
      ("stage", Json.Str d.Core.Diag.stage);
      ("severity",
       Json.Str (Core.Diag.severity_to_string d.Core.Diag.severity));
      ("message", Json.Str d.Core.Diag.message);
      ("context",
       Json.Obj
         (List.map (fun (k, v) -> (k, Json.Str v)) d.Core.Diag.context));
    ]

let error_event ?(event = "error") d =
  Json.Obj
    [ ("ok", Json.Bool false); ("event", Json.Str event);
      ("error", diag_json d) ]

let state_string = function
  | Scheduler.Queued -> "queued"
  | Scheduler.Running -> "running"
  | Scheduler.Finished (Scheduler.Done _) -> "done"
  | Scheduler.Finished (Scheduler.Failed _) -> "failed"
  | Scheduler.Finished Scheduler.Cancelled -> "cancelled"
  | Scheduler.Finished (Scheduler.Expired _) -> "expired"

let event_of_completion (c : Scheduler.completion) =
  let base =
    [
      ("ok", Json.Bool true);
      ("event", Json.Str "done");
      ("id", Json.int c.Scheduler.id);
      ("trace_id", Json.Str c.Scheduler.trace_id);
      ("kind", Json.Str (Job.kind c.Scheduler.job));
      ("state", Json.Str (state_string (Scheduler.Finished c.Scheduler.outcome)));
      ("queue_wait_ms", Json.Num c.Scheduler.queue_wait_ms);
    ]
  in
  let tail =
    match c.Scheduler.outcome with
    | Scheduler.Done { cached; wall_ms; result } ->
      [
        ("cached", Json.Bool cached);
        ("wall_ms", Json.Num wall_ms);
        ("result", result);
      ]
    | Scheduler.Failed d -> [ ("error", diag_json d) ]
    | Scheduler.Cancelled -> []
    | Scheduler.Expired { late_ms } -> [ ("late_ms", Json.Num late_ms) ]
  in
  Json.Obj (base @ tail)

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)

let protocol_error fmt = Core.Diag.errorf ~stage fmt

(* Optional request members must distinguish "absent" (fine, use the
   default) from "present with the wrong type" (a visible rejection
   naming the field) — [Option.bind … Json.to_float] used to collapse
   both to [None], silently ignoring e.g. a string ["deadline_ms"]. *)
let opt_member obj name conv ~expect =
  match Json.member name obj with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (protocol_error "member %s must be %s" name expect))

(* One submission: [Ok (id, accepted-event)] or [Error rejected-event].
   The id is what lets the socket server route the job's completion back
   to the connection that submitted it. *)
let submit_request sched obj =
  let reject d = Error (error_event ~event:"rejected" d) in
  match Json.member "job" obj with
  | None -> reject (protocol_error "missing member job")
  | Some job_json -> (
    match Job.of_json job_json with
    | Error d -> reject d
    | Ok job ->
      let ( let* ) r f = match r with Error d -> reject d | Ok x -> f x in
      let* priority_str =
        opt_member obj "priority" Json.to_str ~expect:"a string"
      in
      let* priority =
        match priority_str with
        | None -> Ok Scheduler.Normal
        | Some s -> (
          match Scheduler.priority_of_string s with
          | Some p -> Ok p
          | None -> Error (protocol_error "unknown priority %S" s))
      in
      let* deadline_ms =
        opt_member obj "deadline_ms" Json.to_float ~expect:"a number"
      in
      let* cost_ms =
        opt_member obj "cost_ms" Json.to_float ~expect:"a number"
      in
      let* trace_id =
        opt_member obj "trace_id" Json.to_str ~expect:"a string"
      in
      match
        Scheduler.submit sched ~priority ?deadline_ms ?cost_ms ?trace_id job
      with
      | Ok id ->
        let trace =
          match Scheduler.trace_id sched id with Some t -> t | None -> ""
        in
        Ok
          ( id,
            Json.Obj
              [
                ("ok", Json.Bool true);
                ("event", Json.Str "accepted");
                ("id", Json.int id);
                ("trace_id", Json.Str trace);
                ("kind", Json.Str (Job.kind job));
              ] )
      | Error d -> reject d)

let with_id obj f =
  match Option.bind (Json.member "id" obj) Json.to_int with
  | None -> [ error_event (protocol_error "missing or non-integer member id") ]
  | Some id -> f id

let handle_status sched obj =
  with_id obj (fun id ->
      match Scheduler.state sched id with
      | Error d -> [ error_event d ]
      | Ok st ->
        [
          Json.Obj
            [
              ("ok", Json.Bool true);
              ("event", Json.Str "status");
              ("id", Json.int id);
              ("state", Json.Str (state_string st));
            ];
        ])

(* journal members appear in stats/health only when a journal is
   configured, so journal-less servers keep their exact reply shape *)
let journal_extra sched =
  match Scheduler.journal_info sched with
  | None -> []
  | Some ji ->
    [
      ("journal_path", Json.Str ji.Scheduler.ji_path);
      ("journal_healthy", Json.Bool ji.Scheduler.ji_healthy);
      ("journal_appends", Json.int ji.Scheduler.ji_appends);
      ("journal_recovered_settled", Json.int ji.Scheduler.ji_settled);
      ("journal_recovered_requeued", Json.int ji.Scheduler.ji_requeued);
      ("journal_truncated", Json.Bool ji.Scheduler.ji_truncated);
      ("journal_compactions", Json.int ji.Scheduler.ji_compactions);
    ]

(* stats and health share the scheduler's counters; health leads with
   the liveness fields *)
let counters_event ~event ?(lead = []) ?(extra = []) sched =
  let s = Scheduler.stats sched in
  Json.Obj
    ([ ("ok", Json.Bool true); ("event", Json.Str event) ]
    @ lead
    @ [
        ("queued", Json.int s.Scheduler.queued);
        ("queued_high", Json.int s.Scheduler.queued_high);
        ("queued_normal", Json.int s.Scheduler.queued_normal);
        ("queued_low", Json.int s.Scheduler.queued_low);
        ("executed", Json.int s.Scheduler.executed);
        ("cache_hits", Json.int s.Scheduler.cache_hits);
        ("done", Json.int s.Scheduler.done_);
        ("failed", Json.int s.Scheduler.failed);
        ("cancelled", Json.int s.Scheduler.cancelled);
        ("expired", Json.int s.Scheduler.expired);
        ("rejected", Json.int s.Scheduler.rejected);
        ("capacity", Json.int s.Scheduler.capacity);
      ]
    @ journal_extra sched @ extra)

let stats_event = counters_event ~event:"stats"

let health_event ?extra sched =
  counters_event ~event:"health" ?extra sched
    ~lead:
      [
        ("status", Json.Str "ok");
        ("uptime_ms", Json.Num (Scheduler.uptime_ms sched));
        ("in_flight", Json.int (Scheduler.dispatched_count sched));
      ]

let metrics_event () =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("event", Json.Str "metrics");
      ("content_type", Json.Str "text/plain; version=0.0.4");
      ( "body",
        Json.Str (Telemetry.Prometheus.render (Telemetry.collect_registry ()))
      );
    ]

let drained_event jobs =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("event", Json.Str "drained");
      ("jobs", Json.int jobs);
    ]

(* One dispatcher for every request line.  A [session] holds what
   depends on where the line came from: the socket loop's admission
   control, job ownership, connection counters and deferred drain, or
   the connection-less defaults of [handle]. *)
type session = {
  admit : unit -> Json.t option;  (* [Some rejected] refuses a submit *)
  own : int -> unit;  (* a submit here was accepted under this id *)
  disown : int -> unit;  (* a job was cancelled *)
  stats_extra : unit -> (string * Json.t) list;
  health_extra : unit -> (string * Json.t) list;
  drain : unit -> Json.t list;
}

let respond session sched line =
  if String.trim line = "" then []
  else
    match Json.of_string line with
    | Error msg -> [ error_event (protocol_error "invalid JSON: %s" msg) ]
    | Ok req -> (
      match Option.bind (Json.member "op" req) Json.to_str with
      | None -> [ error_event (protocol_error "missing member op") ]
      | Some "submit" -> (
        match session.admit () with
        | Some rejected -> [ rejected ]
        | None -> (
          match submit_request sched req with
          | Ok (id, e) ->
            session.own id;
            [ e ]
          | Error e -> [ e ]))
      | Some "status" -> handle_status sched req
      | Some "cancel" ->
        with_id req (fun id ->
            match Scheduler.cancel sched id with
            | Error d -> [ error_event d ]
            | Ok () ->
              session.disown id;
              [
                Json.Obj
                  [
                    ("ok", Json.Bool true);
                    ("event", Json.Str "cancelled");
                    ("id", Json.int id);
                  ];
              ])
      | Some "stats" -> [ stats_event ~extra:(session.stats_extra ()) sched ]
      | Some "health" -> [ health_event ~extra:(session.health_extra ()) sched ]
      | Some "metrics" -> [ metrics_event () ]
      | Some "drain" -> session.drain ()
      | Some op -> [ error_event (protocol_error "unknown op %S" op) ])

let handle sched line =
  respond
    {
      admit = (fun () -> None);
      own = ignore;
      disown = ignore;
      stats_extra = (fun () -> []);
      health_extra = (fun () -> []);
      drain =
        (fun () ->
          let events = List.map event_of_completion (Scheduler.drain sched) in
          events @ [ drained_event (List.length events) ]);
    }
    sched line

(* ------------------------------------------------------------------ *)
(* The serve loop: select over the listening socket (if any), every live
   connection, and the dispatch target's fds.  Connections are strictly
   isolated — an I/O error (EPIPE from a client that vanished mid-write,
   a reset, an oversized request line) closes only that connection and
   bumps [conn_errors]; the loop, the other clients and the scheduler
   keep going.  The loop never runs a job: it hands jobs to the target
   (the executor domain or worker children), settles them when a
   target fd wakes it, and routes each completion to the connection that
   submitted it.  Stdio is this loop over one pre-accepted connection. *)

type serve_stats = {
  accepted : int;
  conn_errors : int;
  idle_closed : int;
  dropped : int;
}

let read_chunk_bytes = 4096
let max_line_bytes = 1 lsl 20 (* a request line beyond 1 MiB is an error *)
let out_pause_bytes = 1 lsl 20 (* backpressure: stop reading above this *)
let out_drop_bytes = 8 * (1 lsl 20) (* slow consumer: drop the connection *)

type conn = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr; (* = rfd for a socket *)
  cid : int;
  (* the pre-accepted stdio connection: the caller owns its fds, it
     receives completions nobody else owns (jobs recovered from the
     journal), and its end of input drains the whole queue *)
  stdio : bool;
  inbuf : Buffer.t; (* request bytes not yet handled *)
  outq : string Queue.t; (* response lines awaiting the socket *)
  mutable out_off : int; (* bytes of the queue head already written *)
  mutable out_bytes : int; (* total queued output, for backpressure *)
  mutable eof : bool; (* peer half-closed; flush + finish its jobs *)
  mutable dead : bool;
  mutable last_in_ms : float;
  mutable owned_jobs : int; (* submitted here and not yet completed *)
  mutable tokens : float; (* rate-limit token bucket (submits) *)
  mutable refill_ms : float; (* last bucket refill instant *)
  opened_ms : float;
  (* [Some n]: a drain waits for the queue and the target to empty, and
     n of this connection's jobs completed meanwhile; later lines stay
     in [inbuf] until it replies *)
  mutable pending_drain : int option;
}

let serve_loop ~listener ~stdio ~max_conns ?idle_timeout_ms ~connections
    ?rate_limit ?queue_high_water ?on_tick ?workers sched =
  (* a client gone mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Workers.with_target ?workers @@ fun target ->
  let now_ms () = Unix.gettimeofday () *. 1000. in
  let conns = ref [] in
  let owners : (int, conn) Hashtbl.t = Hashtbl.create 32 in
  let accepted = ref 0 in
  let conn_errors = ref 0 in
  let idle_closed = ref 0 in
  let dropped_conns = ref 0 in
  let rejected_rate = ref 0 in
  let rejected_queue = ref 0 in
  (* a bucket holds at most one second's budget (but never less than
     one token), so a client that slept cannot burst past its rate *)
  let bucket_burst =
    match rate_limit with Some r -> Float.max 1. r | None -> 0.
  in
  let idle () =
    (Scheduler.stats sched).Scheduler.queued = 0
    && Scheduler.dispatched_count sched = 0
  in
  let gauge_active () =
    Telemetry.gauge_set "service.conns_active"
      (float_of_int (List.length !conns))
  in
  let enqueue c e =
    if not c.dead then begin
      let line = Json.to_string e ^ "\n" in
      Queue.push line c.outq;
      c.out_bytes <- c.out_bytes + String.length line;
      Telemetry.counter_add "service.events_out" 1
    end
  in
  let open_conn ~rfd ~wfd ~stdio =
    incr accepted;
    let now = now_ms () in
    let c =
      {
        rfd;
        wfd;
        cid = !accepted;
        stdio;
        inbuf = Buffer.create 256;
        outq = Queue.create ();
        out_off = 0;
        out_bytes = 0;
        eof = false;
        dead = false;
        last_in_ms = now;
        owned_jobs = 0;
        tokens = bucket_burst;
        refill_ms = now;
        opened_ms = now;
        pending_drain = None;
      }
    in
    conns := !conns @ [ c ];
    Telemetry.counter_add "service.conns_accepted" 1;
    Telemetry.instant "service.conn.open" ~attrs:[ ("conn", Telemetry.Int c.cid) ];
    Telemetry.Events.emit "conn.open" ~attrs:[ ("conn", Telemetry.Int c.cid) ];
    gauge_active ()
  in
  let bump counter name =
    incr counter;
    Telemetry.counter_add name 1
  in
  (* a dropped slow consumer is also an error *)
  let close_conn ?(why = `Close) c =
    if not c.dead then begin
      c.dead <- true;
      if not c.stdio then (try Unix.close c.rfd with Unix.Unix_error _ -> ());
      let error = why = `Error || why = `Drop in
      if error then bump conn_errors "service.conn_errors";
      if why = `Idle then bump idle_closed "service.conn_idle_closed";
      if why = `Drop then bump dropped_conns "service.conns_dropped";
      let dur_ms = now_ms () -. c.opened_ms in
      Telemetry.instant "service.conn.close"
        ~attrs:
          [
            ("conn", Telemetry.Int c.cid);
            ("error", Telemetry.Bool error);
            ("dur_ms", Telemetry.Float dur_ms);
          ];
      let kind =
        match why with
        | `Drop -> "conn.dropped"
        | `Error -> "conn.error"
        | `Idle -> "conn.idle_closed"
        | `Close -> "conn.close"
      in
      Telemetry.Events.emit kind
        ~attrs:
          [
            ("conn", Telemetry.Int c.cid);
            ("dur_ms", Telemetry.Float dur_ms);
            ("out_bytes", Telemetry.Int c.out_bytes);
          ]
    end
  in
  (* completions go to the connection that submitted the job (or, for
     unowned jobs, the stdio connection); if it died meanwhile the event
     is dropped (the job still ran, so the cache and the stats stay warm
     for everyone else) *)
  let route (comp : Scheduler.completion) =
    let dest =
      match Hashtbl.find_opt owners comp.Scheduler.id with
      | Some c ->
        Hashtbl.remove owners comp.Scheduler.id;
        c.owned_jobs <- c.owned_jobs - 1;
        Some c
      | None -> List.find_opt (fun c -> c.stdio) !conns
    in
    Option.iter
      (fun c ->
        c.pending_drain <- Option.map succ c.pending_drain;
        enqueue c (event_of_completion comp))
      dest
  in
  (* connection-layer counters appended to the scheduler's stats and
     health replies — only the serve loop knows them *)
  let conn_extra () =
    [
      ("conns_active", Json.int (List.length !conns));
      ("conns_accepted", Json.int !accepted);
      ("conn_errors", Json.int !conn_errors);
      ("conns_idle_closed", Json.int !idle_closed);
      ("conns_dropped", Json.int !dropped_conns);
      ("rejected_rate_limited", Json.int !rejected_rate);
      ("rejected_high_water", Json.int !rejected_queue);
    ]
    @ Workers.stats_json target
  in
  let health_extra () =
    let now = now_ms () in
    let conn_json c =
      Json.Obj
        [
          ("cid", Json.int c.cid);
          ("owned_jobs", Json.int c.owned_jobs);
          ("out_bytes", Json.int c.out_bytes);
          ("age_ms", Json.Num (now -. c.opened_ms));
          ("idle_ms", Json.Num (now -. c.last_in_ms));
        ]
    in
    conn_extra () @ [ ("connections", Json.Arr (List.map conn_json !conns)) ]
  in
  (* Admission control, checked before the job is even parsed: a
     rejected submission must cost the server nothing but the reply.
     Queue depth guards the shared scheduler; the token bucket guards
     it per client, so one chatty connection cannot starve the rest.
     Both surface as the same structured "rejected" event a full
     scheduler produces — backpressure is always visible, never a
     stalled connection. *)
  let over_budget c =
    match (queue_high_water, rate_limit) with
    | Some hw, _ when (Scheduler.stats sched).Scheduler.queued >= hw ->
      Some
        ( "queue_high_water",
          rejected_queue,
          Printf.sprintf "queue depth at high-water mark %d" hw )
    | _, None -> None
    | _, Some rate ->
      let now = now_ms () in
      c.tokens <-
        Float.min bucket_burst
          (c.tokens +. (rate *. (now -. c.refill_ms) /. 1000.));
      c.refill_ms <- now;
      if c.tokens >= 1. then begin
        c.tokens <- c.tokens -. 1.;
        None
      end
      else
        Some
          ( "rate_limited",
            rejected_rate,
            Printf.sprintf "submit rate above %g/s for this connection" rate )
  in
  let reject_admission c (reason, counter, msg) =
    bump counter ("service.rejected_" ^ reason);
    Telemetry.Events.emit "job.rejected"
      ~attrs:
        [ ("conn", Telemetry.Int c.cid); ("reason", Telemetry.String reason) ];
    error_event ~event:"rejected"
      (Core.Diag.error ~stage:"service.admission"
         ~context:[ ("reason", reason); ("conn", string_of_int c.cid) ]
         msg)
  in
  let session c =
    {
      admit = (fun () -> Option.map (reject_admission c) (over_budget c));
      own =
        (fun id ->
          Hashtbl.replace owners id c;
          c.owned_jobs <- c.owned_jobs + 1);
      disown =
        (fun id ->
          (* cancelled jobs never produce a completion, so the
             submitter's count drops here *)
          match Hashtbl.find_opt owners id with
          | Some oc ->
            Hashtbl.remove owners id;
            oc.owned_jobs <- oc.owned_jobs - 1
          | None -> ());
      stats_extra = conn_extra;
      health_extra;
      drain =
        (fun () ->
          c.pending_drain <- Some 0;
          []);
    }
  in
  (* handle the complete lines in [inbuf], stopping at a pending drain *)
  let handle_lines c =
    let data = Buffer.contents c.inbuf in
    let len = String.length data in
    let rec lines start =
      if c.dead || c.pending_drain <> None then start
      else
        match String.index_from_opt data start '\n' with
        | None -> start
        | Some i ->
          Telemetry.counter_add "service.lines_in" 1;
          List.iter (enqueue c)
            (respond (session c) sched (String.sub data start (i - start)));
          lines (i + 1)
    in
    let rest = lines 0 in
    Buffer.clear c.inbuf;
    if not c.dead && rest < len then begin
      Buffer.add_substring c.inbuf data rest (len - rest);
      if Buffer.length c.inbuf > max_line_bytes then begin
        (* unframeable garbage; protocol error, drop the client *)
        enqueue c
          (error_event
             (protocol_error "request line exceeds %d bytes" max_line_bytes));
        close_conn ~why:`Error c
      end
    end
  in
  let readbuf = Bytes.create read_chunk_bytes in
  let read_conn c =
    match Unix.read c.rfd readbuf 0 read_chunk_bytes with
    | 0 ->
      c.eof <- true;
      (* a last request without its newline still counts *)
      if Buffer.length c.inbuf > 0 then begin
        Buffer.add_char c.inbuf '\n';
        handle_lines c
      end
    | nread ->
      c.last_in_ms <- now_ms ();
      Buffer.add_subbytes c.inbuf readbuf 0 nread;
      handle_lines c
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception (Unix.Unix_error _ | Sys_error _) -> close_conn ~why:`Error c
  in
  (* a drain replies once the queue and the target are empty; then the
     lines it held back run *)
  let settle_drains () =
    List.iter
      (fun c ->
        match c.pending_drain with
        | Some n when (not c.dead) && idle () ->
          c.pending_drain <- None;
          enqueue c (drained_event n);
          handle_lines c
        | _ -> ())
      !conns
  in
  let write_conn c =
    let progress = ref true in
    while (not c.dead) && !progress && not (Queue.is_empty c.outq) do
      let head = Queue.peek c.outq in
      let remaining = String.length head - c.out_off in
      match Unix.single_write_substring c.wfd head c.out_off remaining with
      | nwritten ->
        c.out_bytes <- c.out_bytes - nwritten;
        if nwritten = remaining then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0
        end
        else begin
          c.out_off <- c.out_off + nwritten;
          progress := false
        end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        progress := false
      | exception (Unix.Unix_error _ | Sys_error _) -> close_conn ~why:`Error c
    done
  in
  let want_accept () =
    listener <> None && !accepted < connections && List.length !conns < max_conns
  in
  let accept_ready sock =
    let continue = ref true in
    while !continue && want_accept () do
      match Unix.accept sock with
      | fd, _addr ->
        Unix.set_nonblock fd;
        open_conn ~rfd:fd ~wfd:fd ~stdio:false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> () (* retry *)
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (_, _, _) -> continue := false
    done
  in
  Option.iter (fun (rfd, wfd) -> open_conn ~rfd ~wfd ~stdio:true) stdio;
  let rec loop () =
    (* reap: slow consumers, served-out peers, idle connections *)
    let now = now_ms () in
    List.iter
      (fun c ->
        if not c.dead then
          if c.out_bytes > out_drop_bytes then
            close_conn ~why:`Drop c
          else if
            c.eof && c.pending_drain = None && Queue.is_empty c.outq
            && if c.stdio then idle () else c.owned_jobs = 0
          then close_conn c
          else
            match idle_timeout_ms with
            | Some limit
              when now -. c.last_in_ms > limit
                   && c.owned_jobs = 0 && c.pending_drain = None
                   && Queue.is_empty c.outq ->
              close_conn ~why:`Idle c
            | _ -> ())
      !conns;
    conns := List.filter (fun c -> not c.dead) !conns;
    gauge_active ();
    if !accepted >= connections && !conns = [] then
      (* graceful shutdown: finish whatever is still queued so the cache
         and the stats stay coherent; the owners are gone, so the events
         have nowhere to go *)
      Workers.drain target sched ~route
    else begin
      let listen_fds =
        match listener with Some s when want_accept () -> [ s ] | _ -> []
      in
      let rfds =
        listen_fds
        @ List.filter_map
            (fun c ->
              if c.eof || c.pending_drain <> None || c.out_bytes > out_pause_bytes
              then None
              else Some c.rfd)
            !conns
        @ Workers.fds target
      in
      let wfds =
        List.filter_map
          (fun c -> if Queue.is_empty c.outq then None else Some c.wfd)
          !conns
      in
      (* runnable work pending: poll; otherwise block — a target fd waking
         the select is what resumes dispatch *)
      let runnable =
        (Scheduler.stats sched).Scheduler.queued > 0 && Workers.has_idle target
      in
      let r, w, _ =
        try Unix.select rfds wfds [] (if runnable then 0. else 0.25)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Option.iter (fun s -> if List.mem s r then accept_ready s) listener;
      List.iter (fun c -> if (not c.dead) && List.mem c.rfd r then read_conn c) !conns;
      List.iter (fun c -> if (not c.dead) && List.mem c.wfd w then write_conn c) !conns;
      (* results, replies, deaths, respawns, then refill the idle target *)
      Workers.service target sched ~route ~ready:r;
      settle_drains ();
      Option.iter (fun f -> f ()) on_tick;
      loop ()
    end
  in
  loop ();
  Option.iter (fun f -> f ()) on_tick;
  {
    accepted = !accepted;
    conn_errors = !conn_errors;
    idle_closed = !idle_closed;
    dropped = !dropped_conns;
  }

let serve_socket ?(max_conns = 8) ?idle_timeout_ms ?(connections = 1)
    ?rate_limit ?queue_high_water ?on_tick ?workers sched ~path =
  let check ok what = if not ok then invalid_arg ("Server.serve_socket: " ^ what) in
  let positive = Option.fold ~none:true ~some:(fun v -> v > 0. && Float.is_finite v) in
  check (max_conns >= 1) "max_conns must be >= 1";
  check (connections >= 1) "connections must be >= 1";
  check (positive idle_timeout_ms) "idle_timeout_ms must be positive";
  check (positive rate_limit) "rate_limit must be positive";
  check
    (Option.fold ~none:true ~some:(fun h -> h >= 1) queue_high_water)
    "queue_high_water must be >= 1";
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock max_conns;
      Unix.set_nonblock sock;
      serve_loop ~listener:(Some sock) ~stdio:None ~max_conns ?idle_timeout_ms
        ~connections ?rate_limit ?queue_high_water ?on_tick ?workers sched)

let serve_fds ?on_tick ?workers sched ~input ~output =
  ignore
    (serve_loop ~listener:None ~stdio:(Some (input, output)) ~max_conns:1
       ~connections:1 ?on_tick ?workers sched
      : serve_stats)
