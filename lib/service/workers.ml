let stage = "service.workers"

let max_attempts = 3

type current = { c_id : int; c_digest : string }

type worker = {
  widx : int;
  mutable pid : int;
  mutable fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable current : current option;
  mutable alive : bool;
  mutable jobs_done : int;
}

type procs = {
  argv : string array;
  slots : worker array;
  (* job id -> dispatch attempts, for the poison-job guard *)
  attempts : (int, int) Hashtbl.t;
  (* digest -> parked duplicate job ids (requeued when the twin settles) *)
  parked : (string, int list ref) Hashtbl.t;
  (* digest -> worker slot currently running it *)
  running : (string, int) Hashtbl.t;
  max_restarts : int;
  mutable restarts : int;
  mutable gave_up : bool;
  mutable shutting_down : bool;
}

(* ------------------------------------------------------------------ *)
(* Spawning                                                           *)

let spawn_slot t i =
  let parent_fd, child_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  (* the child's end becomes its stdio; the parent's end must not leak
     into siblings (cloexec), or a dead worker's EOF would never arrive *)
  let pid = Unix.create_process t.argv.(0) t.argv child_fd child_fd Unix.stderr in
  Unix.close child_fd;
  Unix.set_nonblock parent_fd;
  let w = t.slots.(i) in
  w.pid <- pid;
  w.fd <- parent_fd;
  Buffer.clear w.inbuf;
  w.current <- None;
  w.alive <- true;
  Telemetry.counter_add "service.worker_spawned" 1;
  Telemetry.Events.emit "worker.spawn"
    ~attrs:[ ("slot", Telemetry.Int i); ("pid", Telemetry.Int pid) ]

let create_procs ~argv ~n =
  if n < 1 then invalid_arg "Workers.create: n must be >= 1";
  if Array.length argv = 0 then invalid_arg "Workers.create: empty argv";
  let t =
    {
      argv;
      slots =
        Array.init n (fun widx ->
            {
              widx;
              pid = -1;
              fd = Unix.stdin (* replaced by spawn_slot *);
              inbuf = Buffer.create 4096;
              current = None;
              alive = false;
              jobs_done = 0;
            });
      attempts = Hashtbl.create 16;
      parked = Hashtbl.create 16;
      running = Hashtbl.create 16;
      max_restarts = 16 + (4 * n);
      restarts = 0;
      gave_up = false;
      shutting_down = false;
    }
  in
  for i = 0 to n - 1 do
    spawn_slot t i
  done;
  t

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)

let live t = Array.to_list (Array.of_seq (Seq.filter (fun w -> w.alive) (Array.to_seq t.slots)))
let fds t = List.map (fun w -> w.fd) (live t)
let active t = List.length (live t)
let idle w = w.alive && w.current = None

let in_flight t =
  Array.fold_left
    (fun acc w -> if w.alive && w.current <> None then acc + 1 else acc)
    0 t.slots

let restarts t = t.restarts
let pids t = List.map (fun w -> w.pid) (live t)

let stats_json t =
  [
    ("workers_active", Json.int (active t));
    ("workers_in_flight", Json.int (in_flight t));
    ("worker_restarts", Json.int t.restarts);
    ( "workers",
      Json.Arr
        (List.map
           (fun w ->
             Json.Obj
               [
                 ("pid", Json.int w.pid);
                 ("in_flight", Json.int (if w.current = None then 0 else 1));
                 ("jobs_done", Json.int w.jobs_done);
               ])
           (live t)) );
  ]

(* ------------------------------------------------------------------ *)
(* Protocol plumbing                                                  *)

(* the reverse of Server.diag_json: rebuild a structured diagnostic from
   a worker's "failed" event so the parent's completion carries it *)
let diag_of_json j =
  let str name default =
    Option.value ~default (Option.bind (Json.member name j) Json.to_str)
  in
  let context =
    match Json.member "context" j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
        kvs
    | _ -> []
  in
  Core.Diag.error ~stage:(str "stage" stage) ~context (str "message" "worker job failed")

(* blocking write of the (small) request lines; EAGAIN waits for the
   socketpair buffer with a bounded select.  false = the worker is gone. *)
let send_all fd s =
  let len = String.length s in
  let off = ref 0 in
  let ok = ref true in
  while !ok && !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> (
      match Unix.select [] [ fd ] [] 5.0 with
      | [], [], [] -> ok := false (* stuck for 5 s: treat as dead *)
      | _ -> ()
      | exception Unix.Unix_error _ -> ok := false)
    | exception Unix.Unix_error _ -> ok := false
  done;
  !ok

let release_parked t sched digest =
  match Hashtbl.find_opt t.parked digest with
  | None -> ()
  | Some ids ->
    Hashtbl.remove t.parked digest;
    (* back through the queue: they resolve as cache hits if the twin
       succeeded, or dispatch for real if it failed *)
    List.iter (fun id -> Scheduler.requeue_dispatch sched id) (List.rev !ids)

let fail_job sched ~route id msg =
  Option.iter route
    (Scheduler.complete_dispatch sched id (Error (Core.Diag.error ~stage msg)))

let worker_died t sched ~route w =
  if w.alive then begin
    w.alive <- false;
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    Buffer.clear w.inbuf;
    Telemetry.counter_add "service.worker_deaths" 1;
    Telemetry.Events.emit "worker.exit"
      ~attrs:[ ("slot", Telemetry.Int w.widx); ("pid", Telemetry.Int w.pid) ];
    (match w.current with
    | None -> ()
    | Some { c_id; c_digest } ->
      w.current <- None;
      Hashtbl.remove t.running c_digest;
      release_parked t sched c_digest;
      let att = Option.value ~default:1 (Hashtbl.find_opt t.attempts c_id) in
      if att >= max_attempts then begin
        Hashtbl.remove t.attempts c_id;
        fail_job sched ~route c_id
          (Printf.sprintf "worker died %d times running this job" max_attempts)
      end
      else begin
        Telemetry.Events.emit "worker.requeue"
          ~attrs:[ ("id", Telemetry.Int c_id); ("slot", Telemetry.Int w.widx) ];
        Scheduler.requeue_dispatch sched c_id
      end);
    if not t.shutting_down then begin
      if t.restarts < t.max_restarts then begin
        t.restarts <- t.restarts + 1;
        Telemetry.counter_add "service.worker_restarts" 1;
        spawn_slot t w.widx
      end
      else t.gave_up <- true
    end
  end

let settle t sched ~route w result ~wall_ms =
  match w.current with
  | None -> () (* stray reply (e.g. after a requeue); nothing to settle *)
  | Some { c_id; c_digest } ->
    w.current <- None;
    w.jobs_done <- w.jobs_done + 1;
    Hashtbl.remove t.running c_digest;
    Hashtbl.remove t.attempts c_id;
    (match Scheduler.complete_dispatch sched c_id ~wall_ms result with
    | Some c -> route c
    | None -> ());
    release_parked t sched c_digest

let on_reply t sched ~route w line =
  if String.trim line = "" then ()
  else
    match Json.of_string line with
    | Error _ -> ()
    | Ok j -> (
      match Option.bind (Json.member "event" j) Json.to_str with
      | Some "done" -> (
        let wall_ms =
          Option.value ~default:0.
            (Option.bind (Json.member "wall_ms" j) Json.to_float)
        in
        match Option.bind (Json.member "state" j) Json.to_str with
        | Some "done" ->
          let result = Option.value ~default:Json.Null (Json.member "result" j) in
          settle t sched ~route w (Ok result) ~wall_ms
        | Some "failed" ->
          let d =
            match Json.member "error" j with
            | Some e -> diag_of_json e
            | None -> Core.Diag.error ~stage "worker reported failure"
          in
          settle t sched ~route w (Error d) ~wall_ms
        | _ ->
          settle t sched ~route w
            (Error (Core.Diag.error ~stage "unexpected worker completion state"))
            ~wall_ms)
      | Some "rejected" | Some "error" ->
        let d =
          match Json.member "error" j with
          | Some e -> diag_of_json e
          | None -> Core.Diag.error ~stage "worker rejected the job"
        in
        settle t sched ~route w (Error d) ~wall_ms:0.
      | _ -> () (* accepted, drained, ... *))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)

(* dispatch only places a job while some slot is idle *)
let pick_idle t digest =
  let pref = t.slots.(Hashtbl.hash digest mod Array.length t.slots) in
  if idle pref then pref else List.find idle (Array.to_list t.slots)

let start t sched ~route w ~id ~digest ~trace job =
  let lines =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "submit");
           ("job", Job.to_json job);
           ("trace_id", Json.Str trace);
         ])
    ^ "\n" ^ {|{"op":"drain"}|} ^ "\n"
  in
  w.current <- Some { c_id = id; c_digest = digest };
  Hashtbl.replace t.running digest w.widx;
  Hashtbl.replace t.attempts id
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.attempts id));
  Telemetry.counter_add "service.worker_jobs" 1;
  Telemetry.Events.emit ~trace_id:trace "worker.dispatch"
    ~attrs:[ ("id", Telemetry.Int id); ("slot", Telemetry.Int w.widx) ];
  if not (send_all w.fd lines) then worker_died t sched ~route w

let can_place t = active t = 0 || Array.exists idle t.slots

let place t sched ~route (run : Scheduler.run) =
  let digest = run.Scheduler.disp_digest and id = run.Scheduler.disp_id in
  if active t = 0 then
    (* no workers left and no respawn budget: drain the queue as
       failures rather than hanging the server *)
    fail_job sched ~route id "no live workers (respawn budget exhausted)"
  else if Hashtbl.mem t.running digest then begin
    (* duplicate of an in-flight digest: park it; it requeues when the
       twin settles and resolves as a cache hit *)
    (match Hashtbl.find_opt t.parked digest with
    | Some ids -> ids := id :: !ids
    | None -> Hashtbl.replace t.parked digest (ref [ id ]));
    Telemetry.counter_add "service.worker_parked" 1
  end
  else
    start t sched ~route (pick_idle t digest) ~id ~digest
      ~trace:run.Scheduler.disp_trace run.Scheduler.disp_job

(* ------------------------------------------------------------------ *)
(* Event-loop integration                                             *)

let read_chunk = 65536

let read_worker t sched ~route w =
  let buf = Bytes.create read_chunk in
  let continue = ref true in
  while !continue && w.alive do
    match Unix.read w.fd buf 0 read_chunk with
    | 0 ->
      continue := false;
      worker_died t sched ~route w
    | n ->
      Buffer.add_subbytes w.inbuf buf 0 n;
      let data = Buffer.contents w.inbuf in
      let len = String.length data in
      let rec lines start =
        if not w.alive then len
        else
          match String.index_from_opt data start '\n' with
          | None -> start
          | Some i ->
            on_reply t sched ~route w (String.sub data start (i - start));
            lines (i + 1)
      in
      let rest = lines 0 in
      if w.alive then begin
        Buffer.clear w.inbuf;
        if rest < len then Buffer.add_substring w.inbuf data rest (len - rest)
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      continue := false
    | exception Unix.Unix_error _ ->
      continue := false;
      worker_died t sched ~route w
  done

let reap t sched ~route =
  Array.iter
    (fun w ->
      if w.alive then
        match Unix.waitpid [ Unix.WNOHANG ] w.pid with
        | 0, _ -> ()
        | _ -> worker_died t sched ~route w
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          worker_died t sched ~route w
        | exception Unix.Unix_error _ -> ())
    t.slots

let collect t sched ~route ~ready =
  Array.iter
    (fun w -> if w.alive && List.mem w.fd ready then read_worker t sched ~route w)
    t.slots;
  reap t sched ~route

(* ------------------------------------------------------------------ *)
(* Shutdown                                                           *)

let shutdown t =
  if not t.shutting_down then begin
    t.shutting_down <- true;
    Array.iter
      (fun w ->
        if w.alive then begin
          (* EOF on stdin: the child's serve loop drains and exits *)
          (try Unix.close w.fd with Unix.Unix_error _ -> ());
          let reaped = ref false in
          let waited = ref 0. in
          while (not !reaped) && !waited < 5.0 do
            match Unix.waitpid [ Unix.WNOHANG ] w.pid with
            | 0, _ ->
              Unix.sleepf 0.02;
              waited := !waited +. 0.02
            | _ -> reaped := true
            | exception Unix.Unix_error _ -> reaped := true
          done;
          if not !reaped then begin
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()
          end;
          w.alive <- false
        end)
      t.slots
  end

(* ------------------------------------------------------------------ *)
(* In-process target: one executor domain runs [Scheduler.run_dispatched]
   as the calling participant of the scheduler's pool, so [--domains N]
   still computes on N domains while the event loop keeps serving.  The
   loop and the executor talk over a socketpair, like a parent and a
   worker child: a byte down starts the job left in [slot], a byte back
   says the slot holds its result.  Scheduler state stays on the loop
   thread. *)

type exec_slot =
  | Idle
  | Todo of Scheduler.t * Scheduler.run
  | Finished of int * (Json.t, Core.Diag.t) result * float

type local = {
  loop_fd : Unix.file_descr;  (* the loop's end, in its select set *)
  exec_fd : Unix.file_descr;  (* the executor's end *)
  slot : exec_slot Atomic.t;
  mutable executor : unit Domain.t option;  (* spawned on first dispatch *)
  mutable closed : bool;
}

let executor l () =
  let byte = Bytes.create 1 in
  let rec loop () =
    match Unix.read l.exec_fd byte 0 1 with
    | 0 -> () (* the loop shut its end down: exit *)
    | _ ->
      (match Atomic.get l.slot with
      | Todo (sched, run) ->
        let result, wall_ms = Scheduler.run_dispatched sched run in
        Atomic.set l.slot (Finished (run.Scheduler.disp_id, result, wall_ms))
      | Idle | Finished _ -> ());
      ignore (Unix.write_substring l.exec_fd "." 0 1);
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let busy l = match Atomic.get l.slot with Idle -> false | _ -> true

let hand_off l sched run =
  if l.executor = None then l.executor <- Some (Domain.spawn (executor l));
  Atomic.set l.slot (Todo (sched, run));
  ignore (Unix.write_substring l.loop_fd "." 0 1)

let collect_local l sched ~route ~ready =
  if List.mem l.loop_fd ready then begin
    (try ignore (Unix.read l.loop_fd (Bytes.create 8) 0 8)
     with Unix.Unix_error _ -> ());
    match Atomic.get l.slot with
    | Finished (id, result, wall_ms) ->
      Atomic.set l.slot Idle;
      Option.iter route (Scheduler.complete_dispatch sched id ~wall_ms result)
    | Idle | Todo _ -> ()
  end

let shutdown_local l =
  if not l.closed then begin
    l.closed <- true;
    (* half-close: the executor reads EOF once its job (if any) is done,
       and its last wake-up byte still has somewhere to go *)
    (try Unix.shutdown l.loop_fd Unix.SHUTDOWN_SEND
     with Unix.Unix_error _ -> ());
    Option.iter Domain.join l.executor;
    Unix.close l.loop_fd;
    Unix.close l.exec_fd
  end

(* ------------------------------------------------------------------ *)
(* Dispatch targets                                                   *)

type t = Procs of procs | Local of local

let create ~argv ~n = Procs (create_procs ~argv ~n)

let local () =
  let loop_fd, exec_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.set_nonblock loop_fd;
  Local
    {
      loop_fd;
      exec_fd;
      slot = Atomic.make Idle;
      executor = None;
      closed = false;
    }

let fds = function Procs p -> fds p | Local l -> [ l.loop_fd ]
let active = function Procs p -> active p | Local _ -> 1

let in_flight = function
  | Procs p -> in_flight p
  | Local l -> if busy l then 1 else 0

let restarts = function Procs p -> restarts p | Local _ -> 0
let pids = function Procs p -> pids p | Local _ -> []

(* the in-process target adds nothing, so stats and health keep the
   shape they have without a pool *)
let stats_json = function Procs p -> stats_json p | Local _ -> []

let stopped = function Procs p -> p.shutting_down | Local l -> l.closed

(* a job popped now can be placed: on an idle slot, or (a pool out of
   workers and respawns) as a failure *)
let has_idle t =
  (not (stopped t))
  &&
  match t with
  | Procs p -> can_place p
  | Local l -> not (busy l)

let rec dispatch t sched ~route =
  if has_idle t then
    match Scheduler.next_dispatch sched with
    | None -> ()
    | Some (Scheduler.Resolved c) ->
      route c;
      dispatch t sched ~route
    | Some (Scheduler.Run run) ->
      (match t with
      | Procs p -> place p sched ~route run
      | Local l -> hand_off l sched run);
      dispatch t sched ~route

let service t sched ~route ~ready =
  (match t with
  | Procs p -> collect p sched ~route ~ready
  | Local l -> collect_local l sched ~route ~ready);
  dispatch t sched ~route

let shutdown = function Procs p -> shutdown p | Local l -> shutdown_local l

let with_target ?workers f =
  match workers with
  | Some w -> f w
  | None ->
    let l = local () in
    Fun.protect ~finally:(fun () -> shutdown l) (fun () -> f l)

let drain t sched ~route =
  let pending () =
    (Scheduler.stats sched).Scheduler.queued > 0
    || Scheduler.dispatched_count sched > 0
  in
  dispatch t sched ~route;
  while pending () && not (stopped t) do
    let r, _, _ =
      try Unix.select (fds t) [] [] 0.25
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    service t sched ~route ~ready:r
  done
