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

let handle_submit sched obj =
  match submit_request sched obj with Ok (_, e) -> [ e ] | Error e -> [ e ]

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

let handle_cancel sched obj =
  with_id obj (fun id ->
      match Scheduler.cancel sched id with
      | Error d -> [ error_event d ]
      | Ok () ->
        [
          Json.Obj
            [
              ("ok", Json.Bool true);
              ("event", Json.Str "cancelled");
              ("id", Json.int id);
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

let stats_event ?(extra = []) sched =
  let s = Scheduler.stats sched in
  let extra = journal_extra sched @ extra in
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("event", Json.Str "stats");
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
    @ extra)

let health_event ?(in_flight = 0) ?(extra = []) sched =
  let s = Scheduler.stats sched in
  let extra = journal_extra sched @ extra in
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("event", Json.Str "health");
       ("status", Json.Str "ok");
       ("uptime_ms", Json.Num (Scheduler.uptime_ms sched));
       ("queued", Json.int s.Scheduler.queued);
       ("queued_high", Json.int s.Scheduler.queued_high);
       ("queued_normal", Json.int s.Scheduler.queued_normal);
       ("queued_low", Json.int s.Scheduler.queued_low);
       ("in_flight", Json.int in_flight);
       ("done", Json.int s.Scheduler.done_);
       ("failed", Json.int s.Scheduler.failed);
       ("cache_hits", Json.int s.Scheduler.cache_hits);
       ("capacity", Json.int s.Scheduler.capacity);
     ]
    @ extra)

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

let handle_drain ?on_event ?workers sched =
  let events = ref [] in
  let emit e =
    match on_event with Some f -> f e | None -> events := e :: !events
  in
  let jobs = ref 0 in
  let on_completion c =
    incr jobs;
    emit (event_of_completion c)
  in
  (match workers with
  | Some w -> Workers.drain w sched ~route:on_completion
  | None -> ignore (Scheduler.drain sched ~on_completion));
  emit
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("event", Json.Str "drained");
         ("jobs", Json.int !jobs);
       ]);
  List.rev !events

let workers_extra = function
  | Some w -> Workers.stats_json w
  | None -> []

let handle ?on_event ?workers sched line =
  if String.trim line = "" then []
  else
    match Json.of_string line with
    | Error msg -> [ error_event (protocol_error "invalid JSON: %s" msg) ]
    | Ok req -> (
      match Option.bind (Json.member "op" req) Json.to_str with
      | None -> [ error_event (protocol_error "missing member op") ]
      | Some "submit" -> handle_submit sched req
      | Some "status" -> handle_status sched req
      | Some "cancel" -> handle_cancel sched req
      | Some "stats" -> [ stats_event ~extra:(workers_extra workers) sched ]
      | Some "health" -> [ health_event ~extra:(workers_extra workers) sched ]
      | Some "metrics" -> [ metrics_event () ]
      | Some "drain" -> handle_drain ?on_event ?workers sched
      | Some op -> [ error_event (protocol_error "unknown op %S" op) ])

let serve ?on_tick ?workers sched ic oc =
  let tick () = match on_tick with Some f -> f () | None -> () in
  let emit e =
    output_string oc (Json.to_string e);
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file ->
      (* implicit drain: run what's queued, stream the done events, stop
         (no trailing "drained" marker — the stream just ends cleanly) *)
      let on_completion c = emit (event_of_completion c) in
      (try
         match workers with
         | Some w -> Workers.drain w sched ~route:on_completion
         | None -> ignore (Scheduler.drain sched ~on_completion)
       with Sys_error _ -> ());
      tick ()
    | exception Sys_error _ ->
      (* the peer reset the connection — e.g. a worker-pool parent
         closing the socketpair with our final [drained] reply still
         unread turns the close into a RST.  The peer is gone, so there
         is nobody to drain for and writes would fail too: stop quietly
         instead of dying on an "uncaught exception". *)
      tick ()
    | line ->
      List.iter emit (handle ~on_event:emit ?workers sched line);
      tick ();
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Concurrent socket server: a select-based event loop over the
   listening socket and every live connection.  Connections are strictly
   isolated — an I/O error (EPIPE from a client that vanished mid-write,
   a reset, an oversized request line) closes only that connection and
   bumps [conn_errors]; the loop, the other clients and the scheduler
   keep going.  Jobs are pumped one per tick between I/O rounds, and
   each completion is routed to the connection that submitted it. *)

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
  fd : Unix.file_descr;
  cid : int;
  inbuf : Buffer.t; (* bytes of a not-yet-complete request line *)
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
}

let serve_socket ?(max_conns = 8) ?idle_timeout_ms ?(connections = 1)
    ?rate_limit ?queue_high_water ?on_tick ?workers sched ~path =
  if max_conns < 1 then
    invalid_arg "Server.serve_socket: max_conns must be >= 1";
  if connections < 1 then
    invalid_arg "Server.serve_socket: connections must be >= 1";
  (match idle_timeout_ms with
  | Some t when not (t > 0. && Float.is_finite t) ->
    invalid_arg "Server.serve_socket: idle_timeout_ms must be positive"
  | _ -> ());
  (match rate_limit with
  | Some r when not (r > 0. && Float.is_finite r) ->
    invalid_arg "Server.serve_socket: rate_limit must be positive"
  | _ -> ());
  (match queue_high_water with
  | Some h when h < 1 ->
    invalid_arg "Server.serve_socket: queue_high_water must be >= 1"
  | _ -> ());
  (* a client gone mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
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
      let close_conn ?(error = false) ?(idle = false) ?(drop = false) c =
        if not c.dead then begin
          c.dead <- true;
          (try Unix.close c.fd with Unix.Unix_error _ -> ());
          if error then begin
            incr conn_errors;
            Telemetry.counter_add "service.conn_errors" 1
          end;
          if idle then begin
            incr idle_closed;
            Telemetry.counter_add "service.conn_idle_closed" 1
          end;
          if drop then begin
            incr dropped_conns;
            Telemetry.counter_add "service.conns_dropped" 1
          end;
          let dur_ms = now_ms () -. c.opened_ms in
          Telemetry.instant "service.conn.close"
            ~attrs:
              [
                ("conn", Telemetry.Int c.cid);
                ("error", Telemetry.Bool error);
                ("dur_ms", Telemetry.Float dur_ms);
              ];
          let kind =
            if drop then "conn.dropped"
            else if error then "conn.error"
            else if idle then "conn.idle_closed"
            else "conn.close"
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
      (* completions go to the connection that submitted the job; if it
         died meanwhile the event is dropped (the job still ran, so the
         cache and the stats stay warm for everyone else) *)
      let route (comp : Scheduler.completion) =
        match Hashtbl.find_opt owners comp.Scheduler.id with
        | None -> ()
        | Some c ->
          Hashtbl.remove owners comp.Scheduler.id;
          c.owned_jobs <- c.owned_jobs - 1;
          enqueue c (event_of_completion comp)
      in
      let pump_one () =
        (* in-process execution; with a worker pool, jobs go out through
           Workers.dispatch instead and this is never called *)
        match Scheduler.run_next sched with
        | None -> ()
        | Some comp -> route comp
      in
      (* connection-layer counters appended to the scheduler's stats and
         health replies — only the socket server knows them *)
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
        @ workers_extra workers
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
      let in_flight () =
        List.fold_left (fun acc c -> acc + c.owned_jobs) 0 !conns
      in
      (* Admission control, checked before the job is even parsed: a
         rejected submission must cost the server nothing but the reply.
         Queue depth guards the shared scheduler; the token bucket guards
         it per client, so one chatty connection cannot starve the rest.
         Both surface as the same structured "rejected" event a full
         scheduler produces — backpressure is always visible, never a
         stalled connection. *)
      let admit c =
        let queue_full =
          match queue_high_water with
          | Some hw -> (Scheduler.stats sched).Scheduler.queued >= hw
          | None -> false
        in
        if queue_full then Some "queue_high_water"
        else
          match rate_limit with
          | None -> None
          | Some rate ->
            let now = now_ms () in
            c.tokens <-
              Float.min bucket_burst
                (c.tokens +. (rate *. (now -. c.refill_ms) /. 1000.));
            c.refill_ms <- now;
            if c.tokens >= 1. then begin
              c.tokens <- c.tokens -. 1.;
              None
            end
            else Some "rate_limited"
      in
      let reject_admission c reason =
        let counter, msg =
          if reason = "rate_limited" then
            ( rejected_rate,
              Printf.sprintf "submit rate above %g/s for this connection"
                (Option.value rate_limit ~default:0.) )
          else
            ( rejected_queue,
              Printf.sprintf "queue depth at high-water mark %d"
                (Option.value queue_high_water ~default:0) )
        in
        incr counter;
        Telemetry.counter_add ("service.rejected_" ^ reason) 1;
        Telemetry.Events.emit "job.rejected"
          ~attrs:
            [
              ("conn", Telemetry.Int c.cid);
              ("reason", Telemetry.String reason);
            ];
        enqueue c
          (error_event ~event:"rejected"
             (Core.Diag.error ~stage:"service.admission"
                ~context:
                  [ ("reason", reason); ("conn", string_of_int c.cid) ]
                msg))
      in
      let handle_line c line =
        Telemetry.counter_add "service.lines_in" 1;
        if String.trim line = "" then ()
        else
          match Json.of_string line with
          | Error msg ->
            enqueue c (error_event (protocol_error "invalid JSON: %s" msg))
          | Ok req -> (
            match Option.bind (Json.member "op" req) Json.to_str with
            | None -> enqueue c (error_event (protocol_error "missing member op"))
            | Some "submit" -> (
              match admit c with
              | Some reason -> reject_admission c reason
              | None -> (
                match submit_request sched req with
                | Ok (id, e) ->
                  Hashtbl.replace owners id c;
                  c.owned_jobs <- c.owned_jobs + 1;
                  enqueue c e
                | Error e -> enqueue c e))
            | Some "status" -> List.iter (enqueue c) (handle_status sched req)
            | Some "cancel" -> (
              match Option.bind (Json.member "id" req) Json.to_int with
              | None ->
                enqueue c
                  (error_event
                     (protocol_error "missing or non-integer member id"))
              | Some id -> (
                match Scheduler.cancel sched id with
                | Error d -> enqueue c (error_event d)
                | Ok () ->
                  (* cancelled jobs never produce a completion, so the
                     submitter's in-flight count drops here *)
                  (match Hashtbl.find_opt owners id with
                  | Some oc ->
                    Hashtbl.remove owners id;
                    oc.owned_jobs <- oc.owned_jobs - 1
                  | None -> ());
                  enqueue c
                    (Json.Obj
                       [
                         ("ok", Json.Bool true);
                         ("event", Json.Str "cancelled");
                         ("id", Json.int id);
                       ])))
            | Some "stats" -> enqueue c (stats_event ~extra:(conn_extra ()) sched)
            | Some "health" ->
              enqueue c
                (health_event ~in_flight:(in_flight ())
                   ~extra:(health_extra ()) sched)
            | Some "metrics" -> enqueue c (metrics_event ())
            | Some "drain" ->
              (* run the whole queue (all clients' jobs), routing every
                 completion to its owner; the requester is then told how
                 many of its own jobs completed in this drain *)
              let mine = ref 0 in
              let route' comp =
                (match Hashtbl.find_opt owners comp.Scheduler.id with
                | Some oc when oc == c -> incr mine
                | _ -> ());
                route comp
              in
              (match workers with
              | Some w -> Workers.drain w sched ~route:route'
              | None ->
                let rec go () =
                  match Scheduler.run_next sched with
                  | None -> ()
                  | Some comp ->
                    route' comp;
                    go ()
                in
                go ());
              enqueue c
                (Json.Obj
                   [
                     ("ok", Json.Bool true);
                     ("event", Json.Str "drained");
                     ("jobs", Json.int !mine);
                   ])
            | Some op ->
              enqueue c (error_event (protocol_error "unknown op %S" op)))
      in
      let readbuf = Bytes.create read_chunk_bytes in
      let read_conn c =
        match Unix.read c.fd readbuf 0 read_chunk_bytes with
        | 0 -> c.eof <- true
        | nread ->
          c.last_in_ms <- now_ms ();
          Buffer.add_subbytes c.inbuf readbuf 0 nread;
          let data = Buffer.contents c.inbuf in
          let len = String.length data in
          let rec lines start =
            if c.dead then start
            else
              match String.index_from_opt data start '\n' with
              | None -> start
              | Some i ->
                handle_line c (String.sub data start (i - start));
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
                   (protocol_error "request line exceeds %d bytes"
                      max_line_bytes));
              close_conn ~error:true c
            end
          end
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
        | exception Unix.Unix_error (_, _, _) -> close_conn ~error:true c
        | exception Sys_error _ -> close_conn ~error:true c
      in
      let write_conn c =
        let progress = ref true in
        while (not c.dead) && !progress && not (Queue.is_empty c.outq) do
          let head = Queue.peek c.outq in
          let remaining = String.length head - c.out_off in
          match Unix.single_write_substring c.fd head c.out_off remaining with
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
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
            progress := false
          | exception Unix.Unix_error (_, _, _) -> close_conn ~error:true c
          | exception Sys_error _ -> close_conn ~error:true c
        done
      in
      let accept_ready () =
        let continue = ref true in
        while
          !continue && !accepted < connections
          && List.length !conns < max_conns
        do
          match Unix.accept sock with
          | fd, _addr ->
            Unix.set_nonblock fd;
            incr accepted;
            let now = now_ms () in
            let c =
              {
                fd;
                cid = !accepted;
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
              }
            in
            conns := !conns @ [ c ];
            Telemetry.counter_add "service.conns_accepted" 1;
            Telemetry.instant "service.conn.open"
              ~attrs:[ ("conn", Telemetry.Int c.cid) ];
            Telemetry.Events.emit "conn.open"
              ~attrs:[ ("conn", Telemetry.Int c.cid) ];
            gauge_active ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> () (* retry *)
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
            continue := false
          | exception Unix.Unix_error (_, _, _) -> continue := false
        done
      in
      let rec loop () =
        (* reap: slow consumers, served-out peers, idle connections *)
        let now = now_ms () in
        List.iter
          (fun c ->
            if not c.dead then
              if c.out_bytes > out_drop_bytes then
                close_conn ~error:true ~drop:true c
              else if c.eof && c.owned_jobs = 0 && Queue.is_empty c.outq then
                close_conn c
              else
                match idle_timeout_ms with
                | Some limit
                  when now -. c.last_in_ms > limit
                       && c.owned_jobs = 0
                       && Queue.is_empty c.outq ->
                  close_conn ~idle:true c
                | _ -> ())
          !conns;
        conns := List.filter (fun c -> not c.dead) !conns;
        gauge_active ();
        if !accepted >= connections && !conns = [] then (
          (* graceful shutdown: finish whatever is still queued so the
             cache and the stats stay coherent; the owners are gone, so
             the events have nowhere to go *)
          match workers with
          | Some w -> Workers.drain w sched ~route
          | None -> ignore (Scheduler.drain sched))
        else begin
          let queued = (Scheduler.stats sched).Scheduler.queued > 0 in
          let want_accept =
            !accepted < connections && List.length !conns < max_conns
          in
          let rfds =
            (if want_accept then [ sock ] else [])
            @ List.filter_map
                (fun c ->
                  if c.eof || c.out_bytes > out_pause_bytes then None
                  else Some c.fd)
                !conns
            @ (match workers with Some w -> Workers.fds w | None -> [])
          in
          let wfds =
            List.filter_map
              (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
              !conns
          in
          (* runnable work pending: poll; otherwise block — a worker's
             reply fd waking the select is what resumes dispatch *)
          let runnable =
            queued
            && (match workers with Some w -> Workers.has_idle w | None -> true)
          in
          let timeout = if runnable then 0. else 0.25 in
          let r, w, _ =
            try Unix.select rfds wfds [] timeout
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          if List.mem sock r then accept_ready ();
          List.iter (fun c -> if (not c.dead) && List.mem c.fd r then read_conn c) !conns;
          List.iter (fun c -> if (not c.dead) && List.mem c.fd w then write_conn c) !conns;
          (match workers with
          | Some wk ->
            (* replies, deaths, respawns, then refill the idle workers *)
            Workers.service wk sched ~route ~ready:r
          | None ->
            (* one job per tick keeps the loop responsive under load *)
            if queued then pump_one ());
          (match on_tick with Some f -> f () | None -> ());
          loop ()
        end
      in
      loop ();
      (match on_tick with Some f -> f () | None -> ());
      {
        accepted = !accepted;
        conn_errors = !conn_errors;
        idle_closed = !idle_closed;
        dropped = !dropped_conns;
      })
