type 'a t = {
  mu : Mutex.t;
  slots : 'a option array;
  mutable next : int;  (** next write slot *)
  mutable stored : int;
  mutable pushed : int;
}

let create capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  {
    mu = Mutex.create ();
    slots = Array.make capacity None;
    next = 0;
    stored = 0;
    pushed = 0;
  }

let capacity t = Array.length t.slots
let size t = Mutex.protect t.mu (fun () -> t.stored)
let pushed t = Mutex.protect t.mu (fun () -> t.pushed)

(* nothing in the body can raise, so the lock needs no protect and the
   per-query pushes (every log line, every finished trace) allocate only
   the slot's option *)
let push t x =
  Mutex.lock t.mu;
  t.slots.(t.next) <- Some x;
  t.next <- (t.next + 1) mod capacity t;
  if t.stored < capacity t then t.stored <- t.stored + 1;
  t.pushed <- t.pushed + 1;
  Mutex.unlock t.mu

let recent t n =
  Mutex.protect t.mu (fun () ->
      let cap = capacity t in
      (* slot of the k-th newest entry, k from 0 *)
      List.init (Stdlib.min (Stdlib.max n 0) t.stored) (fun k ->
          Option.get t.slots.((t.next - 1 - k + cap) mod cap)))

let clear t =
  Mutex.protect t.mu (fun () ->
      Array.fill t.slots 0 (capacity t) None;
      t.next <- 0;
      t.stored <- 0;
      t.pushed <- 0)
