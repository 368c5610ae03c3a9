/* CRC-32 (IEEE 802.3, bit-reflected) by carry-less multiplication.

   The fold follows Gopal et al., "Fast CRC Computation for Generic
   Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with the
   bit-reflected constants given at the end of that paper. Four 128-bit
   lanes fold 64 input bytes per step; the lanes are then folded into
   one, whole 16-byte blocks are folded into it, and the 128-bit
   remainder is reduced to 64 bits, then to 32 by a Barrett reduction.
   Inputs shorter than 64 bytes, and the tail after the last whole
   16-byte block, go through a 256-entry table a byte at a time.

   The fold is compiled for its own target only, so the rest of the
   program keeps the compiler's default instruction set; OCaml calls
   [cedar_crc32_kernel] only after [cedar_crc32_kernel_init] has found
   the instructions on this CPU. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

/* [byte_table[n]] is the register after feeding byte [n] to zero. */
static uint32_t byte_table[256];

static uint32_t crc_by_byte(uint32_t c, const unsigned char *p, size_t n)
{
  while (n-- > 0) c = byte_table[(c ^ *p++) & 0xff] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
#include <immintrin.h>

#define FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

/* [x] carried 128 bits further on and added to [next]: the low half of
   [x] times the low constant of [k], plus its high half times the high
   constant. */
FOLD_TARGET static inline __m128i fold(__m128i x, __m128i k, __m128i next)
{
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

FOLD_TARGET static inline __m128i load(const unsigned char *p)
{
  return _mm_loadu_si128((const __m128i *)p);
}

/* The register [c] advanced over [n] bytes at [p]; [n] is at least 64
   and a multiple of 16. */
FOLD_TARGET static uint32_t crc_by_fold(uint32_t c, const unsigned char *p, size_t n)
{
  /* k1, k2 carry a lane across four lanes: x^(4*128+32) and
     x^(4*128-32) mod P. k3, k4 carry it across one: x^(128+32) and
     x^(128-32) mod P. k5 is x^64 mod P. Each is bit-reflected and
     shifted left one bit. The Barrett step takes P itself and
     mu = x^64 / P, also bit-reflected. */
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128((int)c));
  __m128i x1 = load(p + 16), x2 = load(p + 32), x3 = load(p + 48);
  __m128i t;
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, load(p));
  /* 128 bits to 64: the low half times k4, plus the high half. */
  t = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  /* 64 bits to 32: the low word times k5, plus the rest. */
  t = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00);
  x0 = _mm_xor_si128(x0, t);
  /* Barrett: subtract floor(x0 / P) * P, the quotient found with mu. */
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return (uint32_t)_mm_extract_epi32(x0, 1);
}
#endif

/* Builds the byte table; true when this CPU can run the fold. */
value cedar_crc32_kernel_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    byte_table[n] = c;
  }
#if defined(__x86_64__)
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"));
#else
  return Val_false;
#endif
}

/* The CRC-32 [crc] continued over [len] bytes of [b] from [pos]. The
   caller has checked the slice. */
value cedar_crc32_kernel(value crc, value b, value pos, value len)
{
  const unsigned char *p = Bytes_val(b) + Long_val(pos);
  size_t n = (size_t)Long_val(len);
  uint32_t c = ~(uint32_t)Long_val(crc);
#if defined(__x86_64__)
  if (n >= 64) {
    size_t whole = n & ~(size_t)15;
    c = crc_by_fold(c, p, whole);
    p += whole;
    n -= whole;
  }
#endif
  c = crc_by_byte(c, p, n);
  return Val_long(~c);
}
