(** NDJSON serving layer: one JSON document per line in, one per line
    out, over stdio or a Unix-domain socket.

    {2 Protocol}

    Requests are objects discriminated on ["op"]:

    {v
    {"op":"submit","job":{"kind":"fault","cell":"NAND2"},"priority":"high"}
    {"op":"status","id":3}
    {"op":"cancel","id":3}
    {"op":"stats"}
    {"op":"health"}
    {"op":"metrics"}
    {"op":"drain"}
    v}

    [submit] optionally carries ["priority"] (["high"|"normal"|"low"]),
    ["deadline_ms"], ["cost_ms"] and ["trace_id"] (any string naming the
    submission in every observability surface — spans, event log,
    completion events, Chrome trace; one is generated when absent); the
    ["job"] member uses the {!Job.of_json} schema.  Every response
    carries ["ok"] (bool) and ["event"]:

    - [submit] answers
      [{"ok":true,"event":"accepted","id":N,"trace_id":"..."}] or
      [{"ok":false,"event":"rejected","error":{...}}] — backpressure is a
      visible rejection, never a stalled connection;
    - [status] answers [{"ok":true,"event":"status","id":N,"state":...}];
    - [stats] answers [{"ok":true,"event":"stats",...counters...}]
      including per-priority queue depths ([queued_high] / [queued_normal]
      / [queued_low]) and [cache_hits]; the serve loop — socket or stdio —
      appends its connection counters ([conns_active], [conns_accepted],
      [conn_errors], [conns_idle_closed], [conns_dropped],
      [rejected_rate_limited], [rejected_high_water]); with a journal
      configured the reply also carries [journal_path], [journal_healthy],
      [journal_appends], [journal_recovered_settled],
      [journal_recovered_requeued], [journal_truncated] and
      [journal_compactions], and with a worker pool it carries
      [workers_active], [worker_restarts], [workers_in_flight] and a
      per-worker [workers] array;
    - [health] answers [{"ok":true,"event":"health","status":"ok",
      "uptime_ms":x,"queued":N,...,"in_flight":N,...}] — the liveness
      probe; [in_flight] counts the jobs running right now
      ({!Scheduler.dispatched_count}).  The serve loop appends its
      connection counters and a [connections] array ([cid],
      [owned_jobs] — queued plus running jobs submitted there —
      [out_bytes], [age_ms], [idle_ms] per live client).  The loop never
      runs a job itself, so [health] answers while one runs;
    - [metrics] answers [{"ok":true,"event":"metrics","content_type":
      "text/plain; version=0.0.4","body":"..."}] where [body] is the
      {!Telemetry.Prometheus.render} exposition of the merged registry —
      one JSON line an operator (or the [top] monitor) unwraps into a
      scrape;
    - each job's completion streams as
      [{"ok":true,"event":"done","id":N,"trace_id":"...",
      "state":"done|failed|expired","cached":b,"wall_ms":x,
      "queue_wait_ms":x,"result":{...}}] to the connection that
      submitted it, as soon as it completes;
    - [drain] answers [{"ok":true,"event":"drained","jobs":N}] once the
      queue is empty and nothing runs, where [N] counts the requester's
      jobs that completed meanwhile.  Until then the connection's later
      lines are held back (other connections are served as usual), so a
      [stats] after a [drain] sees every job settled;
    - unparseable or unknown requests answer
      [{"ok":false,"event":"error","error":{...}}] and the connection
      stays up.

    Errors embed {!Core.Diag.t} as
    [{"stage","severity","message","context":{...}}].  Blank lines are
    ignored.

    One event loop serves both transports: a Unix-domain socket
    ({!serve_socket}, many concurrent clients) or stdio ({!serve_fds},
    one pre-accepted connection that also receives the completions of
    jobs no connection submitted — those recovered from the journal —
    and whose end of input waits for the whole queue).  Submissions
    carry no connection identity on the wire, so ids are global and
    ["status"]/["stats"] see the shared scheduler. *)

val diag_json : Core.Diag.t -> Json.t

val event_of_completion : Scheduler.completion -> Json.t
(** The ["done"] event line for a completion (shared with tests); always
    carries the completion's [trace_id]. *)

val handle : Scheduler.t -> string -> Json.t list
(** Process one request line with no connection around it, returning
    the response documents it produces: the serve loop's dispatcher,
    minus admission control and connection counters, with [drain]
    running the queue on the calling domain ({!Scheduler.drain}) and
    returning its ["done"] events and the ["drained"] marker.  For tests
    and in-process probes. *)

type serve_stats = {
  accepted : int;  (** connections accepted over the server's lifetime *)
  conn_errors : int;
      (** connections dropped on an I/O or protocol error (EPIPE mid
          response, reset, oversized request line, slow consumer) *)
  idle_closed : int;  (** connections closed by the idle timeout *)
  dropped : int;
      (** slow consumers dropped over the output hard cap (also counted
          in [conn_errors]) *)
}

val serve_socket :
  ?max_conns:int ->
  ?idle_timeout_ms:float ->
  ?connections:int ->
  ?rate_limit:float ->
  ?queue_high_water:int ->
  ?on_tick:(unit -> unit) ->
  ?workers:Workers.t ->
  Scheduler.t ->
  path:string ->
  serve_stats
(** Bind a Unix-domain socket at [path] (replacing any stale socket
    file) and serve up to [connections] (default 1) clients {e
    concurrently} — at most [max_conns] (default 8) simultaneously —
    on a [select]-based event loop, then drain the scheduler, close and
    unlink.  The scheduler — and its result cache — is shared by every
    connection; the loop thread owns it.  Jobs run on [workers] when
    given, otherwise on the in-process executor
    ({!Workers.with_target}), which the loop spawns on the first
    dispatch and joins before returning.

    Guarantees:

    - {b incremental framing}: requests may arrive in arbitrary
      fragments; a line over 1 MiB is a protocol error on that
      connection only;
    - {b backpressure}: responses queue per connection (bounded); a
      connection over the high-water mark stops being read until it
      drains, and one exceeding the hard cap is dropped as a slow
      consumer;
    - {b isolation}: an I/O error — a client closing its socket
      mid-response, EPIPE, a reset — or a protocol error closes {e only}
      that connection, bumps [conn_errors] (and the
      [service.conn_errors] telemetry counter), and the loop keeps
      serving everyone else ([SIGPIPE] is ignored for the process);
    - {b routing}: each completion streams to the connection that
      submitted the job; end-of-input from a client lets its outstanding
      jobs finish, streams their events, then closes it;
    - {b idle timeout}: with [idle_timeout_ms], a connection with no
      input, no queued output and no job in flight for that long is
      closed (counted in [idle_closed], not an error);
    - {b admission control}: with [rate_limit], each connection gets a
      token bucket of [rate_limit] submits/second (burst capacity
      [max 1. rate_limit]); with [queue_high_water], submits are refused
      while the shared scheduler queue is at or above that depth.  Either
      way the client gets the same structured
      [{"ok":false,"event":"rejected","error":{...}}] line a full
      scheduler produces, with the error context naming the reason
      ([rate_limited] or [queue_high_water]); the connection stays up,
      and the per-reason totals appear in [stats]/[health] replies as
      [rejected_rate_limited] / [rejected_high_water] (plus
      [service.rejected_*] telemetry counters and a [job.rejected]
      event-log entry per refusal);
    - {b graceful shutdown}: once [connections] clients have been served
      and disconnected, any still-queued jobs run to completion (cache
      and stats stay coherent) before the socket is unlinked;
    - {b off-loop execution}: the target's fds (the executor's wake-up
      socket, or the worker children's) join the [select] set, results
      settle jobs between I/O rounds, and completions route to the
      submitting connection.  The caller owns a [workers] pool
      ({!Workers.shutdown} after this returns). *)

val serve_fds :
  ?on_tick:(unit -> unit) -> ?workers:Workers.t ->
  Scheduler.t -> input:Unix.file_descr -> output:Unix.file_descr -> unit
(** The same loop over one pre-accepted connection reading [input] and
    writing [output] (stdin/stdout for [serve] and for the [worker]
    child).  Returns once input has ended, every queued job has
    completed and its events are written.  The caller owns both fds.
    [on_tick] fires once per loop round and once at the end. *)
