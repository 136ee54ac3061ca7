// Public facade: everything needed to learn contracts from configurations.
//
// Embedders include this (with the repository root — or the installed include
// prefix — on the include path) instead of reaching into src/ directly:
//
//   #include "concord/learner.h"
//
//   concord::Lexer lexer;
//   concord::Dataset train;
//   concord::ConfigParser parser(&lexer, &train.patterns, concord::ParseOptions{});
//   train.configs.push_back(parser.Parse("dev1.cfg", text));
//   concord::ContractSet set = concord::Learner(options).Learn(train).set;
//
// The underlying src/ headers remain the implementation surface; only the
// facades are meant for embedders.
#ifndef INCLUDE_CONCORD_LEARNER_H_
#define INCLUDE_CONCORD_LEARNER_H_

#include "src/contracts/contract.h"
#include "src/contracts/contract_io.h"
#include "src/learn/artifact_store.h"
#include "src/learn/learner.h"
#include "src/pattern/lexer.h"
#include "src/pattern/parser.h"

#endif  // INCLUDE_CONCORD_LEARNER_H_
