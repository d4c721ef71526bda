type priority = High | Normal | Low

type clock_mode = Wall | Virtual

type config = {
  domains : int;
  capacity : int;
  cache_dir : string option;
  clock : clock_mode;
  default_cost_ms : float;
  journal : string option;
}

let default_config =
  {
    domains = 1;
    capacity = 64;
    cache_dir = None;
    clock = Wall;
    default_cost_ms = 1.0;
    journal = None;
  }

type terminal =
  | Done of { cached : bool; wall_ms : float; result : Json.t }
  | Failed of Core.Diag.t
  | Cancelled
  | Expired of { late_ms : float }

type state = Queued | Running | Finished of terminal

type completion = {
  id : int;
  job : Job.t;
  priority : priority;
  outcome : terminal;
  queue_wait_ms : float;
  finished_at_ms : float;
  trace_id : string;
}

type stats = {
  queued : int;
  queued_high : int;
  queued_normal : int;
  queued_low : int;
  executed : int;
  cache_hits : int;
  done_ : int;
  failed : int;
  cancelled : int;
  expired : int;
  rejected : int;
  capacity : int;
}

type jrec = {
  jid : int;
  jjob : Job.t;
  jpriority : priority;
  jtrace : string;
  arrival_ms : float;
  deadline_ms : float option;
  cost_ms : float;
  mutable jstate : state;
}

type t = {
  config : config;
  (* the pool and the pass cache belong to whichever domain runs
     [run_dispatched]; everything else to the owning thread *)
  pool : Parallel.Pool.t;
  pass_cache : Core.Pass.cache;
  (* one FIFO per class; dequeue scans High, Normal, Low in order *)
  q_high : jrec Queue.t;
  q_normal : jrec Queue.t;
  q_low : jrec Queue.t;
  jobs : (int, jrec) Hashtbl.t;
  mem_cache : (string, Json.t) Hashtbl.t;
  created_wall_ms : float;  (* wall clock at create, for uptime *)
  mutable vnow_ms : float;  (* virtual clock; unused in Wall mode *)
  mutable next_id : int;
  queued_by : int array;  (* per-class depth: High, Normal, Low *)
  mutable executed : int;
  mutable cache_hits : int;
  mutable done_count : int;
  mutable failed_count : int;
  mutable cancelled_count : int;
  mutable expired_count : int;
  mutable rejected_count : int;
  mutable closed : bool;
  (* write-ahead journal (config.journal); None when unconfigured or
     after an append failure disabled it *)
  mutable jnl : Journal.t option;
  mutable jnl_settled : int;  (* settled submissions seen by recover *)
  mutable jnl_requeued : int;  (* pending submissions re-enqueued *)
  mutable jnl_truncated : bool;  (* recover discarded a torn tail *)
  mutable jnl_compactions : int;
  (* jobs handed out through next_dispatch and not yet completed or
     requeued: id -> queue wait at dispatch *)
  dispatched : (int, float) Hashtbl.t;
}

let stage = "service.scheduler"

let priority_string = function High -> "high" | Normal -> "normal" | Low -> "low"

let priority_of_string = function
  | "high" -> Some High
  | "normal" -> Some Normal
  | "low" -> Some Low
  | _ -> None

let queue_for t = function
  | High -> t.q_high
  | Normal -> t.q_normal
  | Low -> t.q_low

let class_index = function High -> 0 | Normal -> 1 | Low -> 2
let queued t = Array.fold_left ( + ) 0 t.queued_by

let count_queued t r delta =
  let ci = class_index r.jpriority in
  t.queued_by.(ci) <- t.queued_by.(ci) + delta

(* to the back of its class FIFO *)
let enqueue t r =
  Queue.push r (queue_for t r.jpriority);
  count_queued t r 1

let now_ms t =
  match t.config.clock with
  | Virtual -> t.vnow_ms
  | Wall -> Int64.to_float (Telemetry.now_ns ()) /. 1e6

let advance t ms =
  match t.config.clock with
  | Virtual -> t.vnow_ms <- t.vnow_ms +. ms
  | Wall -> ()

(* [cache_store] writes through [<digest>.json.tmp.<pid>]; a writer that
   died between creating the tmp and renaming it leaves an orphan no one
   will ever read.  Swept when the cache directory is (re)opened. *)
let sweep_orphan_tmps dir =
  let is_tmp name =
    (* matches "<digest>.json.tmp.<pid>" without matching digests *)
    let rec find i =
      if i + 5 > String.length name then false
      else if String.sub name i 5 = ".tmp." then true
      else find (i + 1)
    in
    find 0
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if is_tmp name then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      names

let create ?(config = default_config) () =
  if config.domains < 1 then
    invalid_arg "Scheduler.create: domains must be >= 1";
  if config.capacity < 1 then
    invalid_arg "Scheduler.create: capacity must be >= 1";
  Option.iter
    (fun dir ->
      Journal.mkdir_p dir;
      sweep_orphan_tmps dir)
    config.cache_dir;
  let jnl =
    match config.journal with
    | None -> None
    | Some path -> (
      match Journal.open_append path with
      | Ok j -> Some j
      | Error d -> raise (Core.Diag.Failure d))
  in
  {
    config;
    pool = Parallel.Pool.create ~domains:config.domains ();
    pass_cache = Core.Pass.cache_create ();
    q_high = Queue.create ();
    q_normal = Queue.create ();
    q_low = Queue.create ();
    jobs = Hashtbl.create 64;
    mem_cache = Hashtbl.create 64;
    created_wall_ms = Int64.to_float (Telemetry.now_ns ()) /. 1e6;
    vnow_ms = 0.;
    next_id = 0;
    queued_by = Array.make 3 0;
    executed = 0;
    cache_hits = 0;
    done_count = 0;
    failed_count = 0;
    cancelled_count = 0;
    expired_count = 0;
    rejected_count = 0;
    closed = false;
    jnl;
    jnl_settled = 0;
    jnl_requeued = 0;
    jnl_truncated = false;
    jnl_compactions = 0;
    dispatched = Hashtbl.create 8;
  }

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    (* closing never truncates or compacts: the on-disk journal must look
       exactly like a crash left it, so recovery has one code path *)
    Option.iter Journal.close t.jnl;
    Parallel.Pool.shutdown t.pool
  end

let with_scheduler ?config f =
  let t = create ?config () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)

let reject t ?trace_id ~job diag =
  t.rejected_count <- t.rejected_count + 1;
  Telemetry.counter_add "service.rejected" 1;
  Telemetry.Events.emit ?trace_id "job.rejected"
    ~attrs:
      [
        ("job", Telemetry.String (Job.describe job));
        ("reason", Telemetry.String diag.Core.Diag.message);
      ];
  Error diag

(* A submission that does not carry a trace id gets a deterministic one:
   the job id (deterministic under replay) plus a digest prefix, so the
   id is stable across reruns yet unique per submission. *)
let fresh_trace_id id job =
  let digest = Job.digest job in
  let prefix =
    let hex =
      match String.index_opt digest '-' with
      | Some i when i + 1 < String.length digest ->
        String.sub digest (i + 1) (String.length digest - i - 1)
      | _ -> digest
    in
    String.sub hex 0 (min 8 (String.length hex))
  in
  Printf.sprintf "t%d-%s" id prefix

let jappend t entry = Option.iter (fun j -> Journal.append j entry) t.jnl

let tally t = function
  | Done _ -> t.done_count <- t.done_count + 1
  | Failed _ -> t.failed_count <- t.failed_count + 1
  | Cancelled -> t.cancelled_count <- t.cancelled_count + 1
  | Expired _ -> t.expired_count <- t.expired_count + 1

let outcome_string = function
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"
  | Expired _ -> "expired"

let submit t ?(priority = Normal) ?deadline_ms ?cost_ms ?trace_id job =
  let reject t d = reject t ?trace_id ~job d in
  if t.closed then
    reject t (Core.Diag.error ~stage "scheduler is shut down")
  else
    match Job.validate job with
    | Error d -> reject t (Core.Diag.with_stage stage d)
    | Ok () ->
      let bad_positive name v =
        reject t
          (Core.Diag.errorf ~stage
             ~context:[ ("job", Job.describe job) ]
             "%s must be positive and finite, got %g" name v)
      in
      (match (deadline_ms, cost_ms) with
      | Some d, _ when not (d > 0. && Float.is_finite d) ->
        bad_positive "deadline_ms" d
      | _, Some c when not (c > 0. && Float.is_finite c) ->
        bad_positive "cost_ms" c
      | _ ->
        if queued t >= t.config.capacity then
          reject t
            (Core.Diag.errorf ~stage
               ~context:
                 [
                   ("capacity", string_of_int t.config.capacity);
                   ("queued", string_of_int (queued t));
                   ("priority", priority_string priority);
                   ("job", Job.describe job);
                 ]
               "queue full: %d of %d jobs waiting" (queued t)
               t.config.capacity)
        else begin
          let id = t.next_id in
          t.next_id <- id + 1;
          let jtrace =
            match trace_id with
            | Some tid -> tid
            | None -> fresh_trace_id id job
          in
          let r =
            {
              jid = id;
              jjob = job;
              jpriority = priority;
              jtrace;
              arrival_ms = now_ms t;
              deadline_ms;
              cost_ms =
                Option.value cost_ms ~default:t.config.default_cost_ms;
              jstate = Queued;
            }
          in
          Hashtbl.replace t.jobs id r;
          enqueue t r;
          (* the WAL write happens before the submission is acknowledged:
             an accepted job survives a crash *)
          jappend t
            (Journal.Submit
               {
                 sid = id;
                 sjob = job;
                 sdigest = Job.digest job;
                 strace = jtrace;
                 spriority = priority_string priority;
                 sdeadline_ms = deadline_ms;
                 scost_ms = cost_ms;
               });
          Telemetry.counter_add "service.submitted" 1;
          Telemetry.Events.emit ~trace_id:jtrace "job.submitted"
            ~attrs:
              [
                ("id", Telemetry.Int id);
                ("job_kind", Telemetry.String (Job.kind job));
                ("priority", Telemetry.String (priority_string priority));
              ];
          Ok id
        end)

let cancel t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> Core.Diag.failf ~stage "unknown job id %d" id
  | Some r -> (
    match r.jstate with
    | Queued ->
      (* leave it in its FIFO; dequeue skips non-Queued records *)
      r.jstate <- Finished Cancelled;
      count_queued t r (-1);
      tally t Cancelled;
      jappend t
        (Journal.Settle
           {
             tid = r.jid;
             tdigest = Job.digest r.jjob;
             toutcome = "cancelled";
           });
      Telemetry.counter_add "service.cancelled" 1;
      Telemetry.Events.emit ~trace_id:r.jtrace "job.cancelled"
        ~attrs:[ ("id", Telemetry.Int r.jid) ];
      Ok ()
    | Running ->
      Core.Diag.failf ~stage "job %d is already running (no preemption)" id
    | Finished _ -> Core.Diag.failf ~stage "job %d already finished" id)

let state t id =
  match Hashtbl.find_opt t.jobs id with
  | Some r -> Ok r.jstate
  | None -> Core.Diag.failf ~stage "unknown job id %d" id

(* ------------------------------------------------------------------ *)
(* Result cache                                                       *)

let cache_path t digest =
  Option.map (fun dir -> Filename.concat dir (digest ^ ".json")) t.config.cache_dir

let cache_lookup t digest =
  match Hashtbl.find_opt t.mem_cache digest with
  | Some _ as hit -> hit
  | None -> (
    match cache_path t digest with
    | None -> None
    | Some path when Sys.file_exists path -> (
      let read () =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.of_string (read ()) with
      | Ok v ->
        Hashtbl.replace t.mem_cache digest v;
        Some v
      | Error _ | (exception Sys_error _) -> None)
    | Some _ -> None)

let cache_store t digest result =
  Hashtbl.replace t.mem_cache digest result;
  match cache_path t digest with
  | None -> ()
  | Some path -> (
    let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Json.to_string result));
      Sys.rename tmp path
    with
    | () -> ()
    | exception (Sys_error _ | Unix.Unix_error _) ->
      (* the write (or the rename) failed mid-way: the half-written tmp
         must not outlive the attempt *)
      (try Sys.remove tmp with Sys_error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Dispatch: every execution pops a job with [next_dispatch], runs it
   somewhere — [run_dispatched] on the calling domain, the server's
   executor domain, or a worker process — and settles it with
   [complete_dispatch], or puts it back with [requeue_dispatch] when a
   worker dies mid-job.  Dequeue policy, deadline expiry, the cache and
   the journal live here once, whatever runs the job. *)

let wait_buckets = [| 1.; 10.; 100.; 1000.; 10_000. |]

let dequeue t =
  (* first still-Queued record in policy order; cancelled records are
     dropped lazily here *)
  let rec pop q =
    match Queue.take_opt q with
    | None -> None
    | Some r -> if r.jstate = Queued then Some r else pop q
  in
  match pop t.q_high with
  | Some _ as r -> r
  | None -> (
    match pop t.q_normal with Some _ as r -> r | None -> pop t.q_low)

let finish t r outcome ~queue_wait_ms =
  r.jstate <- Finished outcome;
  jappend t
    (Journal.Settle
       {
         tid = r.jid;
         tdigest = Job.digest r.jjob;
         toutcome = outcome_string outcome;
       });
  tally t outcome;
  let event, extra =
    match outcome with
    | Done { cached; _ } -> ("job.done", [ ("cached", Telemetry.Bool cached) ])
    | Failed d ->
      ("job.failed", [ ("reason", Telemetry.String d.Core.Diag.message) ])
    | Cancelled -> ("job.cancelled", [])
    | Expired { late_ms } ->
      Telemetry.counter_add "service.expired" 1;
      Telemetry.instant "service.expired"
        ~attrs:
          [
            ("trace_id", Telemetry.String r.jtrace);
            ("late_ms", Telemetry.Float late_ms);
          ];
      ("job.expired", [ ("late_ms", Telemetry.Float late_ms) ])
  in
  Telemetry.Events.emit ~trace_id:r.jtrace event
    ~attrs:
      (("id", Telemetry.Int r.jid)
      :: ("queue_wait_ms", Telemetry.Float queue_wait_ms)
      :: extra);
  {
    id = r.jid;
    job = r.jjob;
    priority = r.jpriority;
    outcome;
    queue_wait_ms;
    finished_at_ms = now_ms t;
    trace_id = r.jtrace;
  }

type run = {
  disp_id : int;
  disp_job : Job.t;
  disp_digest : string;
  disp_trace : string;
  disp_priority : priority;
  disp_queue_wait_ms : float;
  disp_cost_ms : float;
}

type dispatch = Run of run | Resolved of completion

let next_dispatch t =
  match dequeue t with
  | None -> None
  | Some r ->
    count_queued t r (-1);
    let queue_wait_ms = now_ms t -. r.arrival_ms in
    Telemetry.histogram_observe "service.queue_wait_ms" ~buckets:wait_buckets
      queue_wait_ms;
    Some
      (match r.deadline_ms with
      | Some d when queue_wait_ms > d ->
        Resolved
          (finish t r (Expired { late_ms = queue_wait_ms -. d }) ~queue_wait_ms)
      | _ -> (
        let digest = Job.digest r.jjob in
        match cache_lookup t digest with
        | Some result ->
          t.cache_hits <- t.cache_hits + 1;
          Telemetry.counter_add "service.cache_hits" 1;
          Telemetry.instant "service.cache_hit"
            ~attrs:
              [
                ("digest", Telemetry.String digest);
                ("trace_id", Telemetry.String r.jtrace);
              ];
          Telemetry.Events.emit ~trace_id:r.jtrace "job.cache_hit"
            ~attrs:
              [
                ("id", Telemetry.Int r.jid);
                ("digest", Telemetry.String digest);
              ];
          Resolved
            (finish t r (Done { cached = true; wall_ms = 0.; result })
               ~queue_wait_ms)
        | None ->
          r.jstate <- Running;
          Hashtbl.replace t.dispatched r.jid queue_wait_ms;
          Telemetry.Events.emit ~trace_id:r.jtrace "job.started"
            ~attrs:
              [
                ("id", Telemetry.Int r.jid);
                ("queue_wait_ms", Telemetry.Float queue_wait_ms);
              ];
          Run
            {
              disp_id = r.jid;
              disp_job = r.jjob;
              disp_digest = digest;
              disp_trace = r.jtrace;
              disp_priority = r.jpriority;
              disp_queue_wait_ms = queue_wait_ms;
              disp_cost_ms = r.cost_ms;
            }))

let run_dispatched t run =
  let attrs =
    [
      ("job", Telemetry.String (Job.describe run.disp_job));
      ("kind", Telemetry.String (Job.kind run.disp_job));
      ("priority", Telemetry.String (priority_string run.disp_priority));
      ("queue_wait_ms", Telemetry.Float run.disp_queue_wait_ms);
      ("trace_id", Telemetry.String run.disp_trace);
    ]
  in
  let started = Telemetry.now_ns () in
  let result =
    Telemetry.with_span "service.job" ~attrs (fun () ->
        Runner.run ~pool:t.pool ~pass_cache:t.pass_cache run.disp_job)
  in
  (* the virtual clock reports the declared cost, so replayed records do
     not depend on how long the job really took *)
  ( result,
    match t.config.clock with
    | Virtual -> run.disp_cost_ms
    | Wall -> Int64.to_float (Int64.sub (Telemetry.now_ns ()) started) /. 1e6 )

let complete_dispatch t id ?(wall_ms = 0.) result =
  match Hashtbl.find_opt t.jobs id with
  | None -> None
  | Some r ->
    if r.jstate <> Running || not (Hashtbl.mem t.dispatched id) then None
    else begin
      let queue_wait_ms =
        Option.value ~default:0. (Hashtbl.find_opt t.dispatched id)
      in
      Hashtbl.remove t.dispatched id;
      t.executed <- t.executed + 1;
      advance t r.cost_ms;
      match result with
      | Ok result ->
        cache_store t (Job.digest r.jjob) result;
        Some
          (finish t r (Done { cached = false; wall_ms; result }) ~queue_wait_ms)
      | Error d -> Some (finish t r (Failed d) ~queue_wait_ms)
    end

let requeue_dispatch t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> ()
  | Some r ->
    if r.jstate = Running && Hashtbl.mem t.dispatched id then begin
      Hashtbl.remove t.dispatched id;
      r.jstate <- Queued;
      (* re-arrivals queue behind their peers, and the journal still
         holds the unsettled Submit record *)
      enqueue t r;
      Telemetry.counter_add "service.requeued" 1;
      Telemetry.Events.emit ~trace_id:r.jtrace "job.requeued"
        ~attrs:[ ("id", Telemetry.Int r.jid) ]
    end

let dispatched_count t = Hashtbl.length t.dispatched

(* The synchronous path: dispatch, run on this domain, settle. *)
let run_next t =
  match next_dispatch t with
  | None -> None
  | Some (Resolved c) -> Some c
  | Some (Run run) ->
    let result, wall_ms = run_dispatched t run in
    complete_dispatch t run.disp_id ~wall_ms result

let drain ?on_completion t =
  let rec loop acc =
    match run_next t with
    | None -> List.rev acc
    | Some c ->
      Option.iter (fun f -> f c) on_completion;
      loop (c :: acc)
  in
  loop []

let await t id =
  let rec loop () =
    match state t id with
    | Error d -> Error d
    | Ok (Finished outcome) -> Ok outcome
    | Ok _ -> (
      match run_next t with
      | Some _ -> loop ()
      | None ->
        (* queued but not in any FIFO: impossible unless state was
           corrupted externally *)
        Core.Diag.failf ~stage "job %d is stuck (queue empty)" id)
  in
  loop ()

let stats t =
  {
    queued = queued t;
    queued_high = t.queued_by.(0);
    queued_normal = t.queued_by.(1);
    queued_low = t.queued_by.(2);
    executed = t.executed;
    cache_hits = t.cache_hits;
    done_ = t.done_count;
    failed = t.failed_count;
    cancelled = t.cancelled_count;
    expired = t.expired_count;
    rejected = t.rejected_count;
    capacity = t.config.capacity;
  }

let trace_id t id = Option.map (fun r -> r.jtrace) (Hashtbl.find_opt t.jobs id)

let uptime_ms t =
  (* wall-clock age regardless of the scheduling clock: the virtual
     clock freezes between jobs, which is useless for "how long has this
     server been up" *)
  (Int64.to_float (Telemetry.now_ns ()) /. 1e6) -. t.created_wall_ms

(* ------------------------------------------------------------------ *)
(* Crash recovery: replay the journal against the persisted digest
   cache.  Settled submissions whose results the cache still holds
   rehydrate the ledger as finished records (fresh ids — pre-crash ids
   belong to pre-crash clients); unsettled ones — and settled ones whose
   results are gone — re-enqueue in original order, which preserves the
   per-class FIFO discipline.  Determinism makes the re-runs exact: a
   re-executed job produces the byte-identical result document.  The
   pass ends with a compaction: the journal is rewritten to hold exactly
   the still-pending submissions. *)

type recovery = {
  rec_settled : int;
  rec_requeued : int;
  rec_truncated : bool;
}

let recover t =
  match t.config.journal with
  | None -> Ok { rec_settled = 0; rec_requeued = 0; rec_truncated = false }
  | Some path -> (
    match Journal.load path with
    | Error d -> Error d
    | Ok { Journal.entries; truncated } ->
      (* the handle is reopened after the compaction rewrite below *)
      Option.iter Journal.close t.jnl;
      t.jnl <- None;
      let settled : (int, string) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (function
          | Journal.Settle { tid; toutcome; _ } ->
            Hashtbl.replace settled tid toutcome
          | Journal.Submit _ -> ())
        entries;
      let nsettled = ref 0 and nrequeued = ref 0 in
      let pending = ref [] in
      List.iter
        (function
          | Journal.Settle _ -> ()
          | Journal.Submit
              { sid; sjob; sdigest; strace; spriority; sdeadline_ms; scost_ms }
            ->
            let id = t.next_id in
            t.next_id <- id + 1;
            let priority =
              Option.value ~default:Normal (priority_of_string spriority)
            in
            let jrec jstate =
              {
                jid = id;
                jjob = sjob;
                jpriority = priority;
                jtrace = strace;
                arrival_ms = now_ms t;
                deadline_ms = sdeadline_ms;
                cost_ms = Option.value scost_ms ~default:t.config.default_cost_ms;
                jstate;
              }
            in
            let rehydrate outcome =
              incr nsettled;
              let r = jrec (Finished outcome) in
              Hashtbl.replace t.jobs id r;
              tally t outcome
            in
            let requeue () =
              incr nrequeued;
              let r = jrec Queued in
              Hashtbl.replace t.jobs id r;
              enqueue t r;
              pending :=
                Journal.Submit
                  {
                    sid = id;
                    sjob;
                    sdigest;
                    strace;
                    spriority;
                    sdeadline_ms;
                    scost_ms;
                  }
                :: !pending;
              Telemetry.Events.emit ~trace_id:strace "job.recovered"
                ~attrs:[ ("id", Telemetry.Int id) ]
            in
            (match Hashtbl.find_opt settled sid with
            | Some "done" -> (
              match cache_lookup t sdigest with
              | Some result ->
                rehydrate (Done { cached = true; wall_ms = 0.; result })
              | None ->
                (* completed before the crash but the cache no longer has
                   the result: run it again (determinism: same bytes) *)
                requeue ())
            | Some "failed" ->
              rehydrate
                (Failed
                   (Core.Diag.error ~stage
                      ~context:[ ("digest", sdigest) ]
                      "failed before restart (journal settle record)"))
            | Some "cancelled" -> rehydrate Cancelled
            | Some "expired" -> rehydrate (Expired { late_ms = 0. })
            | Some _ | None -> requeue ()))
        entries;
      let rewrite_result = Journal.rewrite path (List.rev !pending) in
      t.jnl_compactions <- t.jnl_compactions + 1;
      (match Journal.open_append path with
      | Ok j -> t.jnl <- Some j
      | Error _ -> Telemetry.counter_add "service.journal_errors" 1);
      t.jnl_settled <- t.jnl_settled + !nsettled;
      t.jnl_requeued <- t.jnl_requeued + !nrequeued;
      t.jnl_truncated <- t.jnl_truncated || truncated;
      Telemetry.counter_add "service.journal_recovered" !nsettled;
      Telemetry.counter_add "service.journal_requeued" !nrequeued;
      Telemetry.Events.emit "journal.recovered"
        ~attrs:
          [
            ("settled", Telemetry.Int !nsettled);
            ("requeued", Telemetry.Int !nrequeued);
            ("truncated", Telemetry.Bool truncated);
          ];
      (match rewrite_result with
      | Error d -> Error d
      | Ok () ->
        Ok
          {
            rec_settled = !nsettled;
            rec_requeued = !nrequeued;
            rec_truncated = truncated;
          }))

type journal_info = {
  ji_path : string;
  ji_healthy : bool;
  ji_appends : int;
  ji_settled : int;
  ji_requeued : int;
  ji_truncated : bool;
  ji_compactions : int;
}

let journal_info t =
  match t.config.journal with
  | None -> None
  | Some path ->
    Some
      {
        ji_path = path;
        ji_healthy = (match t.jnl with Some j -> Journal.healthy j | None -> false);
        ji_appends = (match t.jnl with Some j -> Journal.appends j | None -> 0);
        ji_settled = t.jnl_settled;
        ji_requeued = t.jnl_requeued;
        ji_truncated = t.jnl_truncated;
        ji_compactions = t.jnl_compactions;
      }

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)

type request = {
  req_job : Job.t;
  req_priority : priority;
  req_deadline_ms : float option;
  req_cost_ms : float option;
  req_trace_id : string option;
}

let request ?(priority = Normal) ?deadline_ms ?cost_ms ?trace_id job =
  {
    req_job = job;
    req_priority = priority;
    req_deadline_ms = deadline_ms;
    req_cost_ms = cost_ms;
    req_trace_id = trace_id;
  }

type replay_result = {
  completions : completion list;
  rejections : (int * Core.Diag.t) list;
}

let shuffle ~seed arr =
  let rng = Parallel.Split_rng.state ~seed ~stream:0 in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let replay ?(config = default_config) ~seed requests =
  let config = { config with clock = Virtual } in
  with_scheduler ~config (fun t ->
      (* indices shuffled, not the requests, so rejections can report the
         position in the arrival order *)
      let order = Array.init (List.length requests) Fun.id in
      shuffle ~seed order;
      let reqs = Array.of_list requests in
      let rejections = ref [] in
      Array.iter
        (fun i ->
          let r = reqs.(i) in
          (match
             submit t ~priority:r.req_priority ?deadline_ms:r.req_deadline_ms
               ?cost_ms:r.req_cost_ms ?trace_id:r.req_trace_id r.req_job
           with
          | Ok _ -> ()
          | Error d -> rejections := (i, d) :: !rejections);
          advance t 1.0)
        order;
      let completions = drain t in
      { completions; rejections = List.rev !rejections })
