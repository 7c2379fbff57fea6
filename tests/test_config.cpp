// Tests for transformer/config.hpp.
#include "transformer/config.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::tfm {
namespace {

TransformerConfig gpt3_27b() {
  TransformerConfig c;
  c.name = "gpt3-2.7b";
  c.hidden_size = 2560;
  c.num_heads = 32;
  c.num_layers = 32;
  c.seq_len = 2048;
  c.microbatch = 4;
  c.vocab_size = 50257;
  return c;
}

TEST(Config, DerivedQuantities) {
  const TransformerConfig c = gpt3_27b();
  EXPECT_EQ(c.head_dim(), 80);   // the paper's headline inefficiency
  EXPECT_EQ(c.d_ff(), 4 * 2560);
  EXPECT_EQ(c.tokens(), 4 * 2048);
  EXPECT_EQ(c.hidden_per_tp(), 2560);
  EXPECT_EQ(c.heads_per_tp(), 32);
  EXPECT_EQ(c.mlp_matrices(), 2);
}

TEST(Config, SwigluDefaultsTo8hOver3) {
  TransformerConfig c = gpt3_27b();
  c.activation = Activation::kSwiGlu;
  // round(8 * 2560 / 3) = round(6826.67) = 6827
  EXPECT_EQ(c.d_ff(), 6827);
  EXPECT_EQ(c.mlp_matrices(), 3);
  // Explicit override wins.
  c.mlp_intermediate = 6912;
  EXPECT_EQ(c.d_ff(), 6912);
}

TEST(Config, ValidatePasses) {
  EXPECT_NO_THROW(gpt3_27b().validate());
}

TEST(Config, ValidateRejectsNonIntegralHeadDim) {
  TransformerConfig c = gpt3_27b();
  c.num_heads = 48;  // 2560 / 48 is not integral
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Config, ValidateRejectsZeroFields) {
  for (auto mutate : {+[](TransformerConfig& c) { c.hidden_size = 0; },
                      +[](TransformerConfig& c) { c.num_heads = 0; },
                      +[](TransformerConfig& c) { c.num_layers = 0; },
                      +[](TransformerConfig& c) { c.seq_len = 0; },
                      +[](TransformerConfig& c) { c.microbatch = 0; },
                      +[](TransformerConfig& c) { c.vocab_size = 0; },
                      +[](TransformerConfig& c) { c.tensor_parallel = 0; }}) {
    TransformerConfig c = gpt3_27b();
    mutate(c);
    EXPECT_THROW(c.validate(), ConfigError);
  }
}

TEST(Config, ValidateTensorParallelDivisibility) {
  TransformerConfig c = gpt3_27b();
  c.tensor_parallel = 6;  // 32 heads not divisible by 6
  EXPECT_THROW(c.validate(), ConfigError);

  c = gpt3_27b();
  c.tensor_parallel = 8;
  c.vocab_size = 50264;  // divisible by 8
  EXPECT_NO_THROW(c.validate());

  c = gpt3_27b();
  c.tensor_parallel = 8;  // 50257 not divisible by 8 → vocab split fails
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Config, FluentCopies) {
  const TransformerConfig c = gpt3_27b();
  EXPECT_EQ(c.with_heads(40).num_heads, 40);
  EXPECT_EQ(c.with_hidden(4096).hidden_size, 4096);
  EXPECT_EQ(c.with_layers(16).num_layers, 16);
  EXPECT_EQ(c.with_microbatch(8).microbatch, 8);
  EXPECT_EQ(c.with_seq_len(4096).seq_len, 4096);
  EXPECT_EQ(c.with_vocab(50304).vocab_size, 50304);
  EXPECT_EQ(c.with_tensor_parallel(4).tensor_parallel, 4);
  EXPECT_EQ(c.with_name("x").name, "x");
  // Original untouched.
  EXPECT_EQ(c.num_heads, 32);
}

TEST(Config, ToStringContainsKeyFields) {
  const std::string s = gpt3_27b().to_string();
  EXPECT_NE(s.find("h=2560"), std::string::npos);
  EXPECT_NE(s.find("a=32"), std::string::npos);
  EXPECT_NE(s.find("gelu"), std::string::npos);
}

// The printf rendering to_string replaced, kept as the byte oracle.
std::string printf_to_string(const TransformerConfig& c) {
  return str_format(
      "%s (h=%lld a=%lld L=%lld s=%lld b=%lld v=%lld t=%lld d_ff=%lld %s/%s/%s%s)",
      c.name.c_str(), static_cast<long long>(c.hidden_size),
      static_cast<long long>(c.num_heads), static_cast<long long>(c.num_layers),
      static_cast<long long>(c.seq_len), static_cast<long long>(c.microbatch),
      static_cast<long long>(c.vocab_size),
      static_cast<long long>(c.tensor_parallel),
      static_cast<long long>(c.d_ff()), activation_name(c.activation),
      pos_embedding_name(c.pos_embedding), attention_impl_name(c.attention),
      c.parallel_layers ? "/parallel" : "");
}

TEST(Config, ToStringMatchesPrintfForEveryZooModelAndVariant) {
  std::size_t checked = 0;
  for (const std::string& model : known_models()) {
    for (const Activation act : {Activation::kGelu, Activation::kSwiGlu}) {
      for (const PosEmbedding pos :
           {PosEmbedding::kLearned, PosEmbedding::kRotary,
            PosEmbedding::kAlibi}) {
        for (const AttentionImpl attn :
             {AttentionImpl::kBmm, AttentionImpl::kFlash}) {
          for (const bool parallel : {false, true}) {
            TransformerConfig c = model_by_name(model);
            c.activation = act;
            c.pos_embedding = pos;
            c.attention = attn;
            c.parallel_layers = parallel;
            EXPECT_EQ(c.to_string(), printf_to_string(c));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
  // Negative and extreme fields (to_string does not validate).
  TransformerConfig odd = gpt3_27b().with_name("");
  odd.hidden_size = std::numeric_limits<std::int64_t>::min();
  odd.num_heads = -1;
  odd.mlp_intermediate = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(odd.to_string(), printf_to_string(odd));
}

TEST(Config, EnumNames) {
  EXPECT_STREQ(activation_name(Activation::kSwiGlu), "swiglu");
  EXPECT_STREQ(pos_embedding_name(PosEmbedding::kRotary), "rotary");
  EXPECT_STREQ(attention_impl_name(AttentionImpl::kFlash), "flash");
}

TEST(Config, HeadDimRequiresPositiveHeads) {
  TransformerConfig c = gpt3_27b();
  c.num_heads = 0;
  EXPECT_THROW(c.head_dim(), Error);
}

}  // namespace
}  // namespace codesign::tfm
