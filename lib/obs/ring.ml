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

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let capacity t = Array.length t.slots
let size t = locked t (fun () -> t.stored)
let pushed t = locked t (fun () -> t.pushed)

let push t x =
  locked t (fun () ->
      t.slots.(t.next) <- Some x;
      t.next <- (t.next + 1) mod capacity t;
      if t.stored < capacity t then t.stored <- t.stored + 1;
      t.pushed <- t.pushed + 1)

let recent t n =
  locked t (fun () ->
      let cap = capacity t in
      (* slot of the k-th newest entry, k from 0 *)
      List.init (Stdlib.min (Stdlib.max n 0) t.stored) (fun k ->
          Option.get t.slots.((t.next - 1 - k + cap) mod cap)))

let clear t =
  locked t (fun () ->
      Array.fill t.slots 0 (capacity t) None;
      t.next <- 0;
      t.stored <- 0;
      t.pushed <- 0)
