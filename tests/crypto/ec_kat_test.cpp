// Known answers from an independent implementation: ECDH shared secrets
// and ECDSA (SHA-256) verify vectors generated offline with the Python
// `cryptography` package 48.0.0 (OpenSSL backend), pasted here as hex so
// neither the build nor the tests need Python. P-256 signing is pinned
// separately by the RFC 6979 vectors in ecdsa_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "crypto/ec_typed.hpp"
#include "crypto/ecdh.hpp"
#include "crypto/ecdsa.hpp"

namespace argus::crypto {
namespace {

struct EcdhVector {
  Strength strength;
  const char* priv;    // our private scalar d_A
  const char* pub_x;   // d_A * G
  const char* pub_y;
  const char* peer_x;  // the peer's public key Q_B
  const char* peer_y;
  const char* secret;  // x(d_A * Q_B), field-size big-endian
};

const EcdhVector kEcdhVectors[] = {
  {Strength::b112,
   "cf012821019af7980a57cf8509acf4e738b01acdc18c79aa542fe68b",
   "21c0c7c78521c99fab9a2f09a8adc9feb01e70307a561b75faf78347",
   "44bfae5e821e1ff1a44c1a47ef5ee95f47210c7ede3b69540ea5a9ff",
   "12032635b91a2ef88c29ee716422a047532ded54bbfa7aa6bff5bb63",
   "5a9e2eaab10b330566e2f30b6351abcca936f128139ee44abacea69c",
   "ff105ae694bb887cce880727e5486e5e869423dc891089ea5c331c2e"},
  {Strength::b192,
   "f134447088c4f864c4c20b8014ee98edebafc550e8593f7835d3783dac540366"
   "b73b581a45b0fd6c6942da6f1ae3f5dd",
   "28d70574e0d3881df1bed8ec440cea61c197ca2a313c52dee97c4b6b347b5cae"
   "1e77e492cdd6c1644590642c4fd8532b",
   "91e19be12b6cdaeffa3c0272225496b84b807f01d1435aa1253885e42305e77c"
   "9bb4617c6a6437feffc68de18ba34421",
   "9274a02ca6bef11dae47ce92db4890740dfbdb90c754be83c34414b9cbe12a83"
   "4450382380f3a2c32dbcf5b467d3cfcd",
   "86fab47da5e6e2e594cd82ccf3a5efe519da19564c20beadbd2bcb1e84a09a37"
   "802e14b92ff6eac2337fb1904ffcf9f8",
   "8b6a3b48b55c0706dae87e3b6e442f851e76550fb9511361ca31324de485e043"
   "c4bef68a762e5dd625616d04dc07309e"},
  {Strength::b256,
   "00c7cf17d685a3f33adbda50ea9b1c547aef47612d6292f576ca0c2745904340"
   "10553c8980587ec029c16c319885ede4ecf18403990f07f4b567e98a178825df"
   "8e0b",
   "01f65d4d1436e738b3da4643e24357e2cc2888ffa9c801df609f667c702b9c68"
   "d816240b982b40d2631b758332d399e6004b75ae759562fa702e4a97b461ffe6"
   "592f",
   "002d7f180efb8aec0a42dc96b5d7e4eab40e83d2758b03b9738b0309fa264385"
   "d4dc46a0990423b03803eef9907b508a975c0ab272e8fec9a77db058951bb63c"
   "5a9d",
   "00064150d916f42d8f9eb6a8adb0538a030b8b1e2de0a705d6b1d8170679e795"
   "b1d4fdf60fe49bcb696e42998a3580d465e293456e96e282f6656b50a7c2b811"
   "8099",
   "0051d723f6bb6815951bf81af6ad09990cd676f12c1336aec1f46074432126cf"
   "60fc3cd5f13d260a0085c46d18bba38d22ada9ce18cbb4273cb488333c6a834c"
   "ed79",
   "0113437a71064b5a897a1249536d34ac867d9128e0f2fc5066c2955cdd63e59b"
   "0a88da6eb36539c6aeaad6ab646a8c30453e91d67f191b604209dc1f6d11bb00"
   "259a"},
};

struct EcdsaVector {
  Strength strength;
  const char* pub_x;
  const char* pub_y;
  const char* message;  // signed as SHA-256(message)
  const char* r;
  const char* s;
};

const EcdsaVector kEcdsaVectors[] = {
  {Strength::b112,
   "6ff9b64a2ea4ad4296947313e510d98d45ae5f5465eabddbb1e99cf1",
   "a065a3ba7e14574a235925d94c6ebcff8f8814ada2853dfcb94bbf94",
   "argus known-answer P-224",
   "4a1a9645311b9e40fdd82f874f408b7b830faa08631910dbfd9943a1",
   "18011020d54f92f74e3f2cadc0eb89bf7ae2c539b8ef91a1d6c25851"},
  {Strength::b128,
   "c25a8089a973d5732d245ff2d245f3cd2e849b65c62316e93437f5f019e5b1bf",
   "c2b0cf170e7d8fb3c1f81d6a622a971a73b09d97c13cd7f2d2d6739590b789c8",
   "argus known-answer P-256",
   "e86e90c537b2929c6a6054a54994951a9df9e34142d69ca5e62dbec92a8380b5",
   "78f07d7fc7026e41fa7692b4e728e469fb255e765109f1b0f231a0bc3f512eed"},
  {Strength::b192,
   "6c68f37310d5d2d9391fb25381c1724512458ed90aa98f460b130366ff605a1f"
   "c663ec273f3bc4daf77c88cf557cdf92",
   "7acb02deb75f215fcc7a208fd482e5098faeb10793a6585229315d85222d8815"
   "23d373446bf61fb50f6c7f6a49d352d6",
   "argus known-answer P-384",
   "c207df1f2571cd09007fec1cff1782ec79a324debb4cc2b717c48b742383285b"
   "fd125aac8254dededb129de2929eb0ea",
   "dbca7c39ec7d31a28b0aa699b901fd761c6223ef77d3e5a435759091385a73a6"
   "1e191a7c74a566d8848228ee82b7cc7a"},
  {Strength::b256,
   "01f502789f8e819bed495b5f254cf572c51b7bf73038a1f1354ca32687473707"
   "d9d1852ea41ed378bf2df48bcb9a096b5993e9916cad23a126790535b8a2beae"
   "0536",
   "00de5f7b1a4c89ecb29f35f352cfb9e212e61d5ce3197f3e3a94e188fe85c28a"
   "5219337a9992d25e048a1315ac5bd4988b64a5e6db01569f378ca9e583add222"
   "de3a",
   "argus known-answer P-521",
   "00321a86804db75a6dd8c986ba82d31b70ea60a113ec2469e722b184ba97206a"
   "e8b8c5c998f2162ffb606f8089f0400892346aa45ec806b34565f13375e26b8f"
   "f862",
   "007f66c3fef8d8f92605d0659717b008737569b979838c19543fae9c9e0a4e6f"
   "74e6355c251ffe2d350436a5f494c90927b8f20f68fc473a96c19777e5e364e4"
   "4e52"},
};

TEST(EcKnownAnswerTest, EcdhSharedSecretsMatch) {
  for (const EcdhVector& v : kEcdhVectors) {
    const EcGroup& g = group_for(v.strength);
    SCOPED_TRACE(g.params().name);
    const UInt d = UInt::from_hex(v.priv);
    const EcPoint pub{UInt::from_hex(v.pub_x), UInt::from_hex(v.pub_y),
                      false};
    const EcPoint peer{UInt::from_hex(v.peer_x), UInt::from_hex(v.peer_y),
                       false};
    ASSERT_TRUE(g.on_curve(peer));
    EXPECT_EQ(g.scalar_mul_base(d), pub);
    EXPECT_EQ(g.scalar_mul_reference(g.generator(), d), pub);
    EXPECT_EQ(to_hex(ecdh_shared_secret(g, d, peer)), v.secret);
  }
}

TEST(EcKnownAnswerTest, EcdsaVerifyAcceptsValidVectors) {
  for (const EcdsaVector& v : kEcdsaVectors) {
    const EcGroup& g = group_for(v.strength);
    SCOPED_TRACE(g.params().name);
    const EcPoint pub{UInt::from_hex(v.pub_x), UInt::from_hex(v.pub_y),
                      false};
    ASSERT_TRUE(g.on_curve(pub));
    const EcdsaSignature sig{UInt::from_hex(v.r), UInt::from_hex(v.s)};
    EXPECT_TRUE(ecdsa_verify(g, pub, str_bytes(v.message), sig));
  }
}

TEST(EcKnownAnswerTest, EcdsaVerifyRejectsBitFlippedMessages) {
  for (const EcdsaVector& v : kEcdsaVectors) {
    const EcGroup& g = group_for(v.strength);
    SCOPED_TRACE(g.params().name);
    const EcPoint pub{UInt::from_hex(v.pub_x), UInt::from_hex(v.pub_y),
                      false};
    const EcdsaSignature sig{UInt::from_hex(v.r), UInt::from_hex(v.s)};
    Bytes msg = str_bytes(v.message);
    msg[0] ^= 0x01;
    EXPECT_FALSE(ecdsa_verify(g, pub, msg, sig));
  }
}

// Which field kernel a shared group runs on.
Redc group_redc(const EcGroup& g) {
  return g.visit(
      [](const auto& tg) { return std::decay_t<decltype(tg.field())>::kRedc; });
}

bool cpu_runs_adx() {
#if defined(ARGUS_FIELD_ADX)
  __builtin_cpu_init();
  return __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
#else
  return false;
#endif
}

TEST(EcGroupDispatch, AdxFieldExactlyWhenTheCpuHasAdxAndBmi2) {
  const bool adx = cpu_runs_adx();
  const Redc p224 = adx ? Redc::kP224Adx : Redc::kP224;
  const Redc p256 = adx ? Redc::kP256Adx : Redc::kP256;
  EXPECT_EQ(group_redc(group_for(Strength::b112)), p224);
  EXPECT_EQ(group_redc(group_for(Strength::b128)), p256);
  EXPECT_EQ(group_redc(group_for(Strength::b192)), Redc::kGeneric);
  EXPECT_EQ(group_redc(group_for(Strength::b256)), Redc::kGeneric);
  EXPECT_STREQ(group_for(Strength::b112).field_kernel(), redc_name(p224));
  EXPECT_STREQ(group_for(Strength::b128).field_kernel(), redc_name(p256));
}

#if defined(ARGUS_FIELD_ADX)
// The portable groups stay built on an ADX host: both typed groups of
// each prime give the same ladder output, point for point.
template <class Adx, class Portable>
void expect_groups_agree(const CurveParams& cp) {
  SCOPED_TRACE(cp.name);
  const EcGroupT<Adx> ga(cp);
  const EcGroupT<Portable> gp(cp);
  const EcPoint g{cp.gx, cp.gy, false};
  EcPoint p = g;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    const UInt k = UInt::from_hex(std::string(cp.field_bytes * 2 - 2, 'c') +
                                  std::to_string(10 + i));
    const EcPoint a = ga.to_affine(ga.scalar_mul_ct(p, k));
    ASSERT_EQ(a, gp.to_affine(gp.scalar_mul_ct(p, k)));
    ASSERT_EQ(ga.to_affine(ga.jdbl(ga.to_jac(a))),
              gp.to_affine(gp.jdbl(gp.to_jac(a))));
    p = a;
  }
}

TEST(EcGroupDispatch, PortableAndAdxGroupsAgree) {
  if (!cpu_runs_adx()) GTEST_SKIP() << "this CPU lacks ADX or BMI2";
  expect_groups_agree<FieldP256Adx, FieldP256>(curve_p256());
  expect_groups_agree<FieldP224Adx, FieldP224>(curve_p224());
}
#endif

}  // namespace
}  // namespace argus::crypto
