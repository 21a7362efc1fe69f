(** Reliability of a BISR'ed RAM module (Section VIII, Fig. 5).

    Hard-failure model: each bit fails independently at rate [lambda]
    per hour, so a bpw-bit word is faulty at time t with probability
    q(t) = 1 - exp(-lambda*bpw*t).  The module survives until t iff at
    most S = spares*bpc of the W regular words are faulty and all S
    spare words are fault-free, giving

    R(t) = (1-q)^S * sum_{j=0..S} C(W,j) q^j (1-q)^(W-j).

    The initial dip with more spares (spares fail too) and the late
    crossover where more spares win are the paper's Fig. 5 phenomena. *)

type config = {
  words : int;  (** regular words W *)
  bpw : int;
  spare_words : int;  (** S = spares * bpc *)
  lambda : float;  (** per-bit failure rate, per hour *)
}

val of_org : Bisram_sram.Org.t -> lambda:float -> config

(** Reliability at time [t] hours; in [0,1], decreasing in [t]. *)
val reliability : config -> float -> float

(** Failure probability density -dR/dt, analytic:
    mu (S R(t) + W C(W-1,S) q^S (1-q)^W) with mu = lambda*bpw (the
    second term only when S < W). *)
val failure_pdf : config -> float -> float

(** Mean time to failure in hours, exact.  With x = exp(-mu t) and
    mu = lambda*bpw, R(t) = sum_{j<=min(S,W)} C(W,j) (1-x)^j x^(W+S-j),
    so MTTF = (1/mu) sum_{j<=min(S,W)} C(W,j) B(j+1, W+S-j): min(S,W)+1
    Beta-function terms, with no horizon search or quadrature. *)
val mttf : config -> float

(** Time at which the reliability of config [a] first drops below that
    of config [b] (scanning [t0..t1] with [steps] points); [None] when
    no crossover occurs in range.  Used for the 4-vs-8-spares crossover
    of Fig. 5. *)
val crossover :
  config -> config -> t0:float -> t1:float -> steps:int -> float option
