(** A fixed pool of OCaml domains for fan-out dispatch, and the caller's
    own domain as one more.

    Each worker owns a queue; jobs are pinned to a worker index. [run]
    enqueues every job but the last on its worker and runs the last one
    itself, on the calling domain, so a single job never leaves the
    caller and a fan-out of N jobs makes N − 1 hand-offs. A given
    shard's statements may therefore run on its worker or on a caller,
    but never on two domains at once: [run] is serialized, and it
    returns only after every job it was given has finished, so its pgdb
    session and wire gateway see one domain at a time. [run] re-raises
    the first exception a job threw. *)

type job = unit -> unit

(* utilization accounting of one domain, written by the domain running
   the jobs and read lock-free by the observability refresh: cumulative
   busy wall-time, cumulative dispatch-queue wait (submission to
   execution start), and jobs completed. Nanoseconds in an int — 63
   bits of ns is ~292 years, no overflow concern *)
type meter = {
  busy_ns : int Atomic.t;
  wait_ns : int Atomic.t;
  jobs : int Atomic.t;
}

type worker = {
  w_mu : Mutex.t;
  w_cond : Condition.t;
  w_queue : job Queue.t;
  mutable w_stop : bool;
  w_meter : meter;
}

type t = {
  workers : worker array;
  domains : unit Domain.t array;
  caller : meter;  (** the jobs [run] ran on its caller's domain *)
  (* completion latch shared by one [run] at a time; [run] itself is
     serialized by [run_mu] so concurrent coordinators cannot interleave
     their latches *)
  run_mu : Mutex.t;
  latch_mu : Mutex.t;
  latch_cond : Condition.t;
  mutable pending : int;
  mutable first_exn : exn option;
  (* saturation counters, readable from any domain without touching the
     queue locks: jobs queued-but-not-started and jobs mid-execution on
     a worker — what the overload monitor's pool gauges report *)
  queued : int Atomic.t;
  busy : int Atomic.t;
  created_ns : int64;  (** pool start, for busy/idle wall-time split *)
}

let meter () =
  { busy_ns = Atomic.make 0; wait_ns = Atomic.make 0; jobs = Atomic.make 0 }

let worker_loop (w : worker) () =
  let rec next () =
    Mutex.lock w.w_mu;
    let rec wait () =
      if Queue.is_empty w.w_queue && not w.w_stop then begin
        Condition.wait w.w_cond w.w_mu;
        wait ()
      end
    in
    wait ();
    if Queue.is_empty w.w_queue && w.w_stop then Mutex.unlock w.w_mu
    else begin
      let job = Queue.pop w.w_queue in
      Mutex.unlock w.w_mu;
      job ();
      next ()
    end
  in
  next ()

let create ~(workers : int) : t =
  let ws =
    Array.init (max 1 workers) (fun _ ->
        {
          w_mu = Mutex.create ();
          w_cond = Condition.create ();
          w_queue = Queue.create ();
          w_stop = false;
          w_meter = meter ();
        })
  in
  {
    workers = ws;
    domains = Array.map (fun w -> Domain.spawn (worker_loop w)) ws;
    caller = meter ();
    run_mu = Mutex.create ();
    latch_mu = Mutex.create ();
    latch_cond = Condition.create ();
    pending = 0;
    first_exn = None;
    queued = Atomic.make 0;
    busy = Atomic.make 0;
    created_ns = Obs.Clock.now_ns ();
  }

let size t = Array.length t.workers

(** Jobs submitted but not yet started — the pool's queue depth. *)
let queue_depth t = Stdlib.max 0 (Atomic.get t.queued)

(** Workers currently executing a job (a job [run] runs on its caller
    is not counted). *)
let busy_workers t = Stdlib.max 0 (Atomic.get t.busy)

(** Seconds since the pool was created (the wall-time denominator of the
    per-domain busy/idle split). *)
let uptime_s t = Obs.Clock.seconds_since t.created_ns

(** Cumulative utilization of one domain. *)
type worker_stat = {
  ws_jobs : int;  (** jobs completed *)
  ws_busy_s : float;  (** wall-time spent executing jobs *)
  ws_wait_s : float;  (** total dispatch-queue wait of those jobs *)
}

let stat (m : meter) : worker_stat =
  {
    ws_jobs = Atomic.get m.jobs;
    ws_busy_s = float_of_int (Atomic.get m.busy_ns) *. 1e-9;
    ws_wait_s = float_of_int (Atomic.get m.wait_ns) *. 1e-9;
  }

(** Per-worker utilization, index = worker/domain id. *)
let worker_stats t : worker_stat array =
  Array.map (fun w -> stat w.w_meter) t.workers

(** Utilization of the jobs [run] ran on its callers' domains. *)
let caller_stats t : worker_stat = stat t.caller

(* run [job] on the current domain, charged to [m]: the gap since
   [enq_ns] is its dispatch-queue wait, its body busy time. An exception
   it raises is kept for [run]'s caller unless an earlier job's was. *)
let timed (t : t) (m : meter) ~(enq_ns : int64) (job : job) : unit =
  let start_ns = Obs.Clock.now_ns () in
  let wait = Int64.to_int (Int64.sub start_ns enq_ns) in
  if wait > 0 then ignore (Atomic.fetch_and_add m.wait_ns wait);
  (try job ()
   with e ->
     Mutex.lock t.latch_mu;
     if t.first_exn = None then t.first_exn <- Some e;
     Mutex.unlock t.latch_mu);
  let busy = Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) start_ns) in
  if busy > 0 then ignore (Atomic.fetch_and_add m.busy_ns busy);
  Atomic.incr m.jobs

(** Run every [(worker_index, job)] pair to completion. Every job but
    the last goes to its worker's queue first; then the caller runs the
    last one itself. Jobs pinned to the same worker run in submission
    order; distinct workers and the caller run concurrently. Re-raises
    the first exception any job threw (after all jobs have settled, so
    no job is abandoned mid-flight). *)
let run (t : t) (jobs : (int * job) list) : unit =
  match List.rev jobs with
  | [] -> ()
  | (_, inline) :: rest ->
      Mutex.lock t.run_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.run_mu)
        (fun () ->
          let queued = List.rev rest in
          t.pending <- List.length queued;
          t.first_exn <- None;
          List.iter
            (fun (i, job) ->
              let w = t.workers.(i mod Array.length t.workers) in
              let enq_ns = Obs.Clock.now_ns () in
              (* the job leaves the saturation counters before it
                 releases the latch, so they read 0 once [run] returns *)
              let wrapped () =
                Atomic.decr t.queued;
                Atomic.incr t.busy;
                timed t w.w_meter ~enq_ns job;
                Atomic.decr t.busy;
                Mutex.lock t.latch_mu;
                t.pending <- t.pending - 1;
                if t.pending = 0 then Condition.broadcast t.latch_cond;
                Mutex.unlock t.latch_mu
              in
              Atomic.incr t.queued;
              Mutex.lock w.w_mu;
              Queue.push wrapped w.w_queue;
              Condition.signal w.w_cond;
              Mutex.unlock w.w_mu)
            queued;
          timed t t.caller ~enq_ns:(Obs.Clock.now_ns ()) inline;
          Mutex.lock t.latch_mu;
          while t.pending > 0 do
            Condition.wait t.latch_cond t.latch_mu
          done;
          let exn = t.first_exn in
          Mutex.unlock t.latch_mu;
          match exn with Some e -> raise e | None -> ())

(** Stop every worker and join its domain. Idempotent enough for
    shutdown paths: pending queued jobs still drain first. *)
let shutdown (t : t) : unit =
  Array.iter
    (fun w ->
      Mutex.lock w.w_mu;
      w.w_stop <- true;
      Condition.broadcast w.w_cond;
      Mutex.unlock w.w_mu)
    t.workers;
  Array.iter Domain.join t.domains
